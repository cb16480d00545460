package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"shoggoth/internal/cloud"
	"shoggoth/internal/detect"
	"shoggoth/internal/geom"
	"shoggoth/internal/video"
)

// bitEqual reports the first difference between two decoded values, walking
// them by reflection so a field added to any wire struct is compared without
// an edit here. Floats compare by bit pattern (so -0 ≠ +0 and every NaN
// payload counts); a nil slice equals an empty one, which is the codec's
// (and was gob's) canonical form.
func bitEqual(path string, a, b reflect.Value) error {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Errorf("%s: %x vs %x", path, math.Float64bits(a.Float()), math.Float64bits(b.Float()))
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Errorf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Errorf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Errorf("%s: nil %v vs nil %v", path, a.IsNil(), b.IsNil())
		}
		if !a.IsNil() {
			return bitEqual(path, a.Elem(), b.Elem())
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := bitEqual(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := bitEqual(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%s: bitEqual does not know kind %v", path, a.Kind())
	}
	return nil
}

func sameValue(a, b any) error {
	return bitEqual("", reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem())
}

// gen draws wire values that lean on the corners: zero-length slices and
// strings, nil and present GT, extreme ints, and float bit patterns that a
// text or trimmed encoding would lose.
type gen struct {
	rng *rand.Rand
	// gobSafe keeps to values gob itself round-trips, so it can serve as the
	// oracle: gob drops a -0 struct field, which compares equal to the zero
	// value it omits.
	gobSafe bool
}

func (g *gen) float() float64 {
	special := []float64{
		0, 1, -1.5, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8000000000123), // quiet NaN with a payload
		math.Float64frombits(0xfff0000000000001), // signalling NaN, sign set
		math.Copysign(0, -1),
	}
	if g.gobSafe {
		special = special[:len(special)-1]
	}
	if g.rng.IntN(3) == 0 {
		return special[g.rng.IntN(len(special))]
	}
	return g.rng.NormFloat64() * 100
}

func (g *gen) int() int {
	switch g.rng.IntN(6) {
	case 0:
		return 0
	case 1:
		return -1
	case 2:
		return math.MinInt
	case 3:
		return math.MaxInt
	default:
		return g.rng.IntN(2000) - 1000
	}
}

func (g *gen) str() string {
	return []string{"", "rush-hour", "edge-1", "ночь", strings.Repeat("x", 200)}[g.rng.IntN(5)]
}

func (g *gen) box() geom.Box {
	return geom.Box{X1: g.float(), Y1: g.float(), X2: g.float(), Y2: g.float()}
}

func (g *gen) request() *LabelRequest {
	req := &LabelRequest{DeviceID: g.str(), SLOClass: g.str(), Alpha: g.float(), Lambda: g.float()}
	for i, n := 0, g.rng.IntN(5); i < n; i++ {
		f := video.Frame{
			Index: g.int(), Time: g.float(), Domain: g.str(), DomainID: g.int(),
			NumGT: g.int(), Complexity: g.float(), Motion: g.float(),
		}
		for j, m := 0, g.rng.IntN(4); j < m; j++ {
			p := video.Proposal{TrackID: g.int(), Anchor: g.box()}
			for k := range p.TrueOffset {
				p.TrueOffset[k] = g.float()
			}
			if g.rng.IntN(2) == 0 {
				p.GT = &video.GT{TrackID: g.int(), Class: g.int(), Box: g.box()}
			}
			switch g.rng.IntN(3) {
			case 0: // nil Features
			case 1:
				p.Features = []float64{}
			default:
				p.Features = make([]float64, 1+g.rng.IntN(8))
				for k := range p.Features {
					p.Features[k] = g.float()
				}
			}
			f.Proposals = append(f.Proposals, p)
		}
		req.Frames = append(req.Frames, f)
	}
	return req
}

func (g *gen) response() *LabelResponse {
	resp := &LabelResponse{PhiMean: g.float(), NewRate: g.float(), QueueDelaySec: g.float()}
	for i, n := 0, g.rng.IntN(5); i < n; i++ {
		var set []detect.TeacherLabel
		for j, m := 0, g.rng.IntN(4); j < m; j++ {
			set = append(set, detect.TeacherLabel{ProposalIdx: g.int(), Class: g.int(), Box: g.box(), Confidence: g.float()})
		}
		resp.Labels = append(resp.Labels, set)
		resp.Phis = append(resp.Phis, g.float())
	}
	return resp
}

// onWire is what a request decodes to: req with every proposal's Features
// nil and TrueOffset zero, the two fields the edge keeps to itself.
func onWire(req *LabelRequest) *LabelRequest {
	out := *req
	out.Frames = make([]video.Frame, len(req.Frames))
	for i, f := range req.Frames {
		f.Proposals = slices.Clone(f.Proposals)
		for j := range f.Proposals {
			f.Proposals[j].Features, f.Proposals[j].TrueOffset = nil, [4]float64{}
		}
		out.Frames[i] = f
	}
	return &out
}

// gobRoundTrip is the codec this package used to run, kept as the oracle.
func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var wire bytes.Buffer
	if err := gob.NewEncoder(&wire).Encode(in); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&wire).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestWireRoundTripProperty: decode(encode(x)) is x, bit for bit, over
// generated replies, and x's projection onWire over generated requests
// (whose proposals carry features and offsets the encoder must leave out);
// on the values gob can carry it also matches what the gob round trip of
// that projection delivers.
func TestWireRoundTripProperty(t *testing.T) {
	for _, gobSafe := range []bool{false, true} {
		g := &gen{rng: rand.New(rand.NewPCG(14, 1)), gobSafe: gobSafe}
		for i := 0; i < 500; i++ {
			req := g.request()
			var got LabelRequest
			if err := DecodeLabelRequest(AppendLabelRequest(nil, req), &got); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if err := sameValue(onWire(req), &got); err != nil {
				t.Fatalf("request %d changed in flight: %v", i, err)
			}
			resp := g.response()
			var gotResp LabelResponse
			if err := DecodeLabelResponse(AppendLabelResponse(nil, resp), &gotResp); err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			if err := sameValue(resp, &gotResp); err != nil {
				t.Fatalf("reply %d changed in flight: %v", i, err)
			}
			if !gobSafe {
				continue
			}
			var viaGob LabelRequest
			gobRoundTrip(t, onWire(req), &viaGob)
			if err := sameValue(&viaGob, &got); err != nil {
				t.Fatalf("request %d: gob and wire disagree: %v", i, err)
			}
			var respViaGob LabelResponse
			gobRoundTrip(t, resp, &respViaGob)
			if err := sameValue(&respViaGob, &gotResp); err != nil {
				t.Fatalf("reply %d: gob and wire disagree: %v", i, err)
			}
		}
	}
}

// TestWireRoundTripRealFrames: what the cloud reads of the frames the edge
// really uploads survives, against gob as well, and the features and
// offsets the edge keeps are really there to leave out.
func TestWireRoundTripRealFrames(t *testing.T) {
	p := video.DETRACProfile()
	req := &LabelRequest{DeviceID: "edge-1", Frames: collectFrames(p, 1, 20, 15), Alpha: 0.9, Lambda: 0.5}
	if len(req.Frames[0].Proposals) == 0 || len(req.Frames[0].Proposals[0].Features) == 0 {
		t.Fatal("the first real frame carries no proposal features")
	}
	var got, viaGob LabelRequest
	if err := DecodeLabelRequest(AppendLabelRequest(nil, req), &got); err != nil {
		t.Fatal(err)
	}
	gobRoundTrip(t, onWire(req), &viaGob)
	if err := sameValue(onWire(req), &got); err != nil {
		t.Fatal(err)
	}
	if err := sameValue(&viaGob, &got); err != nil {
		t.Fatalf("gob and wire disagree: %v", err)
	}
}

// TestCloudReadsNothingTheWireDrops: the cloud labels what the wire keeps.
// For each stock profile, three consecutive real 20-frame batches run
// through one labeler chain on the edge's full frames, with every field the
// wire drops poisoned (NaN features, random true offsets), and through a
// second chain on the frames a request decodes to. Labels, φ and service
// time agree bit for bit, and so do the analytic φs of an events-fidelity
// device.
func TestCloudReadsNothingTheWireDrops(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 3))
	for _, p := range video.StockProfiles() {
		newLabeler := func() *cloud.Labeler {
			return cloud.NewLabeler(detect.NewTeacher(p, rand.New(rand.NewPCG(7, 8))), cloud.DefaultLabelerConfig())
		}
		full, wire := newLabeler(), newLabeler()
		frames := collectFrames(p, 1, 60, 15)
		var labeled, moved int
		for start := 0; start < len(frames); start += 20 {
			batch := frames[start : start+20]
			var decoded LabelRequest
			if err := DecodeLabelRequest(AppendLabelRequest(nil, &LabelRequest{DeviceID: "edge-1", Frames: batch}), &decoded); err != nil {
				t.Fatal(err)
			}
			poisoned := make([]*video.Frame, len(batch))
			wireFrames := make([]*video.Frame, len(batch))
			for i := range batch {
				f := batch[i]
				f.Proposals = slices.Clone(f.Proposals)
				for j := range f.Proposals {
					pr := &f.Proposals[j]
					if len(pr.Features) == 0 {
						t.Fatalf("%s frame %d proposal %d carries no features to poison", p.Name, f.Index, j)
					}
					pr.Features = make([]float64, len(pr.Features))
					for k := range pr.Features {
						pr.Features[k] = math.NaN()
					}
					for k := range pr.TrueOffset {
						pr.TrueOffset[k] = rng.NormFloat64()
					}
				}
				poisoned[i], wireFrames[i] = &f, &decoded.Frames[i]
			}
			for i := range batch {
				got, want := wire.LabelFrame(wireFrames[i]), full.LabelFrame(poisoned[i])
				if err := sameValue(&got, &want); err != nil {
					t.Fatalf("%s frame %d: the decoded frame labels differently: %v", p.Name, batch[i].Index, err)
				}
				labeled += len(want.Labels)
				if want.Phi != 0 {
					moved++
				}
			}
			gotPhis, wantPhis := wire.PhiAnalytic(nil, wireFrames), full.PhiAnalytic(nil, poisoned)
			if err := sameValue(&gotPhis, &wantPhis); err != nil {
				t.Fatalf("%s batch at frame %d: analytic φs differ: %v", p.Name, batch[0].Index, err)
			}
		}
		if labeled == 0 || moved == 0 {
			t.Fatalf("%s: the run exercised too little: %d labels, %d non-zero φ", p.Name, labeled, moved)
		}
	}
}

// TestWireLayoutPinned pins the byte layout of version 3: a change here
// without a WireVersion bump breaks deployed peers silently. The proposal's
// TrueOffset and Features are set and must not reach the wire.
func TestWireLayoutPinned(t *testing.T) {
	req := &LabelRequest{
		DeviceID: "e1", Alpha: 1, Lambda: -2,
		Frames: []video.Frame{{
			Index: -1, Time: 0.5, Domain: "d", DomainID: 2, NumGT: 1,
			Proposals: []video.Proposal{{
				TrackID: 3, Anchor: geom.Box{X2: 1}, TrueOffset: [4]float64{5, 6, 7, 8},
				GT:       &video.GT{TrackID: 3, Class: 4},
				Features: []float64{2},
			}},
		}},
	}
	f64 := func(v float64) string {
		return hex.EncodeToString(AppendLabelResponse(nil, &LabelResponse{PhiMean: v})[4:12])
	}
	zero4 := strings.Repeat(f64(0), 4)
	want := "534751" + "03" + // "SGQ", version
		"026531" + "00" + // DeviceID, SLOClass
		f64(1) + f64(-2) + // Alpha, Lambda
		"01" + "01" + "01" + // totals: frames, proposals, GTs
		"01" + f64(0.5) + "0164" + "04" + "02" + f64(0) + f64(0) + "01" + // frame: Index Time Domain DomainID NumGT Complexity Motion nProposals
		"06" + f64(0) + f64(0) + f64(1) + f64(0) + // proposal: TrackID Anchor
		"01" + "06" + "08" + zero4 // GT present: TrackID Class Box
	if got := hex.EncodeToString(AppendLabelRequest(nil, req)); got != want {
		t.Fatalf("request layout moved:\n got %s\nwant %s", got, want)
	}
	if f64(1) != "000000000000f03f" {
		t.Fatalf("float64 is not 8 little-endian IEEE-754 bytes: %s", f64(1))
	}
	resp := &LabelResponse{PhiMean: 1, NewRate: 2, QueueDelaySec: 0.5,
		Labels: [][]detect.TeacherLabel{nil, {{ProposalIdx: 1, Class: -1, Confidence: 1}}},
		Phis:   []float64{0, 2}}
	wantResp := "534752" + "03" + f64(1) + f64(2) + f64(0.5) +
		"02" + "01" + // totals: sets, labels
		"00" + // empty set
		"01" + "02" + "01" + zero4 + f64(1) + // one label: ProposalIdx Class Box Confidence
		"02" + f64(0) + f64(2) // Phis
	if got := hex.EncodeToString(AppendLabelResponse(nil, resp)); got != wantResp {
		t.Fatalf("reply layout moved:\n got %s\nwant %s", got, wantResp)
	}
}

// TestWireRejectsPrefixesAndTrailingBytes: every strict prefix of a valid
// message, and the message with one byte appended, is an error — never a
// panic, never a silent partial decode.
func TestWireRejectsPrefixesAndTrailingBytes(t *testing.T) {
	g := &gen{rng: rand.New(rand.NewPCG(14, 2))}
	p := video.DETRACProfile()
	reqs := []*LabelRequest{{DeviceID: "edge-1", Frames: collectFrames(p, 2, 2, 15)}}
	resps := []*LabelResponse{}
	for i := 0; i < 40; i++ {
		reqs = append(reqs, g.request())
		resps = append(resps, g.response())
	}
	for i, req := range reqs {
		msg := AppendLabelRequest(nil, req)
		var out LabelRequest
		for n := 0; n < len(msg); n++ {
			if DecodeLabelRequest(msg[:n:n], &out) == nil {
				t.Fatalf("request %d: %d-byte prefix of %d bytes decoded", i, n, len(msg))
			}
		}
		if DecodeLabelRequest(append(msg, 0), &out) == nil {
			t.Fatalf("request %d: trailing byte accepted", i)
		}
	}
	for i, resp := range resps {
		msg := AppendLabelResponse(nil, resp)
		var out LabelResponse
		for n := 0; n < len(msg); n++ {
			if DecodeLabelResponse(msg[:n:n], &out) == nil {
				t.Fatalf("reply %d: %d-byte prefix of %d bytes decoded", i, n, len(msg))
			}
		}
		if DecodeLabelResponse(append(msg, 0), &out) == nil {
			t.Fatalf("reply %d: trailing byte accepted", i)
		}
	}
}

// TestWireRejectsOtherFormats: a gob stream or another version is refused
// with an error naming the version this side speaks.
func TestWireRejectsOtherFormats(t *testing.T) {
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode(&LabelRequest{DeviceID: "edge-1"}); err != nil {
		t.Fatal(err)
	}
	v1 := AppendLabelRequest(nil, &LabelRequest{DeviceID: "edge-1"})
	v1[3] = 1
	v2 := bytes.Clone(v1)
	v2[3] = 2
	reply := AppendLabelResponse(nil, &LabelResponse{})
	var req LabelRequest
	for name, body := range map[string][]byte{"gob": gobBody.Bytes(), "version 1": v1, "version 2": v2, "a reply": reply, "empty": nil} {
		err := DecodeLabelRequest(body, &req)
		if err == nil || !strings.Contains(err.Error(), "version 3") {
			t.Fatalf("%s body: want an error naming wire version 3, got %v", name, err)
		}
	}
	var resp LabelResponse
	if err := DecodeLabelResponse(v1, &resp); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("request handed to the reply decoder: %v", err)
	}
	label := []detect.TeacherLabel{{Confidence: 1}}
	oneOver := AppendLabelResponse(nil, &LabelResponse{Labels: [][]detect.TeacherLabel{label, label}, Phis: []float64{1, 2, 3}})
	if err := DecodeLabelResponse(oneOver, &resp); err == nil || !strings.Contains(err.Error(), "3 φs for 2 label sets") {
		t.Fatalf("a reply with a φ too many: %v", err)
	}
}

// hostileCount is a well-formed request header whose frame total claims
// 2^60 frames in a body a few dozen bytes long.
func hostileCount() []byte {
	msg := AppendLabelRequest(nil, &LabelRequest{DeviceID: "x"})
	msg = msg[:len(msg)-3]                                                  // drop the three zero totals
	msg = append(msg, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10) // uvarint 1<<60
	return append(msg, 0, 0, 0)
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWireHostileCountsFailFast: no count is believed beyond the bytes that
// could back it, whichever total carries the lie.
func TestWireHostileCountsFailFast(t *testing.T) {
	var req LabelRequest
	var err error
	if n := allocatedBy(func() { err = DecodeLabelRequest(hostileCount(), &req) }); err == nil || n > 16<<10 {
		t.Fatalf("2^60 claimed frames: err %v after allocating %d bytes", err, n)
	}
	if !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("want the count refused against the remaining bytes, got: %v", err)
	}

	// Each total in turn: one too many is caught when the frames run out,
	// 2^40 is refused before anything is allocated for it.
	p := video.DETRACProfile()
	valid := AppendLabelRequest(nil, &LabelRequest{DeviceID: "x", Frames: collectFrames(p, 3, 2, 15)})
	for i := 0; i < 3; i++ {
		at := headerBytes + 2 + 1 + 16 // past DeviceID "x", the empty SLOClass, Alpha, Lambda
		for j := 0; j < i; j++ {
			_, n := binary.Uvarint(valid[at:])
			at += n
		}
		real, n := binary.Uvarint(valid[at:])
		for _, forgedTotal := range []uint64{real + 1, 1 << 40} {
			forged := binary.AppendUvarint(bytes.Clone(valid[:at]), forgedTotal)
			forged = append(forged, valid[at+n:]...)
			if n := allocatedBy(func() { err = DecodeLabelRequest(forged, &req) }); err == nil || n > uint64(4*len(forged)) {
				t.Fatalf("total %d forged to %d: err %v after allocating %d bytes for a %d-byte body", i, forgedTotal, err, n, len(forged))
			}
		}
	}

	var resp LabelResponse
	reply := AppendLabelResponse(nil, &LabelResponse{})
	reply = append(reply[:len(reply)-3], 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0) // totals, then no φs
	if n := allocatedBy(func() { err = DecodeLabelResponse(reply, &resp) }); err == nil || n > 16<<10 {
		t.Fatalf("2^32 claimed label sets: err %v after allocating %d bytes", err, n)
	}
}

func realUpload(t testing.TB, dup int) (*LabelRequest, *LabelResponse) {
	t.Helper()
	p := video.DETRACProfile()
	req := &LabelRequest{DeviceID: "edge-1", Frames: collectFrames(p, 1, 20, 15), Alpha: 0.9, Lambda: 0.5}
	resp := &LabelResponse{PhiMean: 0.2, NewRate: 1.5}
	for i := range req.Frames {
		f := &req.Frames[i]
		orig := f.Proposals
		for d := 1; d < dup; d++ {
			f.Proposals = append(f.Proposals, orig...)
		}
		set := make([]detect.TeacherLabel, len(f.Proposals))
		for j := range set {
			set[j] = detect.TeacherLabel{ProposalIdx: j, Class: j % 4, Box: f.Proposals[j].Anchor, Confidence: 0.75}
		}
		resp.Labels = append(resp.Labels, set)
		resp.Phis = append(resp.Phis, 0.25)
	}
	return req, resp
}

// TestWireAllocs: encoding into a warm buffer allocates nothing, and
// decoding a 20-frame upload costs a fixed handful of allocations that does
// not grow with the proposal count (gob: 1,720).
func TestWireAllocs(t *testing.T) {
	for _, dup := range []int{1, 4} {
		req, resp := realUpload(t, dup)
		reqBuf := AppendLabelRequest(nil, req)
		respBuf := AppendLabelResponse(nil, resp)
		if n := testing.AllocsPerRun(20, func() { reqBuf = AppendLabelRequest(reqBuf[:0], req) }); n != 0 {
			t.Errorf("×%d proposals: request encode into a warm buffer allocates %v times", dup, n)
		}
		if n := testing.AllocsPerRun(20, func() { respBuf = AppendLabelResponse(respBuf[:0], resp) }); n != 0 {
			t.Errorf("×%d proposals: reply encode into a warm buffer allocates %v times", dup, n)
		}
		var gotReq LabelRequest
		n := testing.AllocsPerRun(20, func() {
			if err := DecodeLabelRequest(reqBuf, &gotReq); err != nil {
				t.Fatal(err)
			}
		})
		// Three slabs, DeviceID, and one string per run of frames sharing a Domain.
		if n > 7 {
			t.Errorf("×%d proposals: request decode allocates %v times, want ≤ 7", dup, n)
		}
		var gotResp LabelResponse
		n = testing.AllocsPerRun(20, func() {
			if err := DecodeLabelResponse(respBuf, &gotResp); err != nil {
				t.Fatal(err)
			}
		})
		if n > 3 {
			t.Errorf("×%d proposals: reply decode allocates %v times, want ≤ 3 (the three slabs)", dup, n)
		}
	}
}

var benchSink []byte

func BenchmarkWire(b *testing.B) {
	req, resp := realUpload(b, 1)
	reqBuf := AppendLabelRequest(nil, req)
	respBuf := AppendLabelResponse(nil, resp)
	b.Run("encode_req", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(reqBuf)))
		for i := 0; i < b.N; i++ {
			benchSink = AppendLabelRequest(reqBuf[:0], req)
		}
	})
	b.Run("decode_req", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(reqBuf)))
		var out LabelRequest
		for i := 0; i < b.N; i++ {
			if err := DecodeLabelRequest(reqBuf, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode_resp", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(respBuf)))
		for i := 0; i < b.N; i++ {
			benchSink = AppendLabelResponse(respBuf[:0], resp)
		}
	})
	b.Run("decode_resp", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(respBuf)))
		var out LabelResponse
		for i := 0; i < b.N; i++ {
			if err := DecodeLabelResponse(respBuf, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
