package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"shoggoth/internal/detect"
	"shoggoth/internal/geom"
	"shoggoth/internal/video"
)

// The /v1/label wire format, version 1 (the table is in DESIGN.md §8).
//
// A message is a 4-byte header — three magic bytes naming the message kind
// and one version byte — followed by the fields of the Go struct in
// declaration order with nothing optional and nothing skippable:
//
//	string   uvarint byte count, then the bytes
//	int      zig-zag varint (encoding/binary's Varint)
//	float64  its 8 IEEE-754 bytes, little-endian, so every value — -0, ±Inf,
//	         any NaN payload — arrives bit for bit
//	slice    uvarint element count, then the elements
//	*GT      one byte, 0 (nil) or 1, then the GT when 1
//
// Ahead of its frames a request carries the totals the decoder allocates
// from — frames, proposals, feature floats, GTs — and a reply carries its
// label total ahead of the label sets. The decoder charges every total
// against the bytes that remain at the element's true minimum encoded size
// before it allocates, so a hostile count can never make it allocate more
// than a small constant times the body it was handed; the per-frame counts
// must then add up to exactly those totals, and the message must end where
// its last field ends.
//
// Versioning rule: the layout is positional, so any change to it — a field
// added, removed, reordered or re-typed in LabelRequest, LabelResponse,
// video.Frame, video.Proposal, video.GT or detect.TeacherLabel — bumps
// WireVersion, and the two sides of a deployment upgrade together. A peer
// speaking another version (or another format altogether) is refused with an
// error that names the version this side speaks; nothing is negotiated.
const (
	// WireVersion is the fourth header byte of every label message.
	WireVersion = 1

	// MaxLabelRequestBytes caps one /v1/label upload. The server answers 413
	// beyond it (by declared Content-Length or by bytes actually read) and
	// the client refuses to send one. A 20-frame DETRAC batch is ~100 KB;
	// shoggoth-edge never holds more than 60 frames.
	MaxLabelRequestBytes = 16 << 20
	// MaxLabelResponseBytes caps the reply the client will read. A label is
	// about a ninth the size of the proposal it answers, so any request
	// under its cap draws a reply well under this one.
	MaxLabelResponseBytes = 4 << 20
)

const (
	requestMagic  = "SGQ"
	responseMagic = "SGR"
	versionByte   = string(rune(WireVersion))
	headerBytes   = len(requestMagic + versionByte)

	// Minimum encoded sizes (every varint one byte, every string and slice
	// empty): what a claimed count is charged per element.
	minFrameBytes    = 1 + 8 + 1 + 1 + 1 + 8 + 8 + 1 // Index Time Domain DomainID NumGT Complexity Motion nProposals
	minProposalBytes = 1 + 32 + 32 + 1 + 1           // TrackID Anchor TrueOffset hasGT nFeatures
	minGTBytes       = 1 + 1 + 32                    // TrackID Class Box
	minLabelSetBytes = 1                             // nLabels
	minLabelBytes    = 1 + 1 + 32 + 8                // ProposalIdx Class Box Confidence
)

var errTruncated = errors.New("rpc: wire: message ends inside a field")

// reserve returns dst with room for n more bytes, so that the encoders below
// write into spare capacity and a warm buffer is never reallocated.
func reserve(dst []byte, n int) []byte {
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		return grown
	}
	return dst
}

// putBytes is append(b, s...) into capacity reserve already made.
func putBytes(b []byte, s string) []byte {
	n := len(b)
	b = b[:n+len(s)]
	copy(b[n:], s)
	return b
}

func putString(b []byte, s string) []byte {
	return putBytes(binary.AppendUvarint(b, uint64(len(s))), s)
}

func putInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func putF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func putBox(b []byte, x geom.Box) []byte {
	return putF64(putF64(putF64(putF64(b, x.X1), x.Y1), x.X2), x.Y2)
}

// AppendLabelRequest appends req's wire encoding to dst and returns the
// extended slice. It allocates only when dst lacks the capacity.
//
//shoggoth:hotpath
func AppendLabelRequest(dst []byte, req *LabelRequest) []byte {
	var nProposals, nFeatures, nGT, domainBytes int
	for i := range req.Frames {
		f := &req.Frames[i]
		nProposals += len(f.Proposals)
		domainBytes += len(f.Domain)
		for j := range f.Proposals {
			nFeatures += len(f.Proposals[j].Features)
			if f.Proposals[j].GT != nil {
				nGT++
			}
		}
	}
	// Upper bound: every varint at its 10-byte maximum.
	const maxVarint = binary.MaxVarintLen64
	b := reserve(dst, headerBytes+2*maxVarint+len(req.DeviceID)+len(req.SLOClass)+16+4*maxVarint+
		len(req.Frames)*(5*maxVarint+24)+domainBytes+
		nProposals*(2*maxVarint+65)+nGT*(2*maxVarint+32)+nFeatures*8)

	b = putBytes(b, requestMagic+versionByte)
	b = putString(b, req.DeviceID)
	b = putString(b, req.SLOClass)
	b = putF64(b, req.Alpha)
	b = putF64(b, req.Lambda)
	b = binary.AppendUvarint(b, uint64(len(req.Frames)))
	b = binary.AppendUvarint(b, uint64(nProposals))
	b = binary.AppendUvarint(b, uint64(nFeatures))
	b = binary.AppendUvarint(b, uint64(nGT))
	for i := range req.Frames {
		f := &req.Frames[i]
		b = putInt(b, f.Index)
		b = putF64(b, f.Time)
		b = putString(b, f.Domain)
		b = putInt(b, f.DomainID)
		b = putInt(b, f.NumGT)
		b = putF64(b, f.Complexity)
		b = putF64(b, f.Motion)
		b = binary.AppendUvarint(b, uint64(len(f.Proposals)))
		for j := range f.Proposals {
			p := &f.Proposals[j]
			b = putInt(b, p.TrackID)
			b = putBox(b, p.Anchor)
			for _, v := range p.TrueOffset {
				b = putF64(b, v)
			}
			if p.GT == nil {
				b = putBytes(b, "\x00")
			} else {
				b = putBytes(b, "\x01")
				b = putInt(b, p.GT.TrackID)
				b = putInt(b, p.GT.Class)
				b = putBox(b, p.GT.Box)
			}
			b = binary.AppendUvarint(b, uint64(len(p.Features)))
			for _, v := range p.Features {
				b = putF64(b, v)
			}
		}
	}
	return b
}

// AppendLabelResponse appends resp's wire encoding to dst and returns the
// extended slice. It allocates only when dst lacks the capacity.
//
//shoggoth:hotpath
func AppendLabelResponse(dst []byte, resp *LabelResponse) []byte {
	nLabels := 0
	for _, set := range resp.Labels {
		nLabels += len(set)
	}
	const maxVarint = binary.MaxVarintLen64
	b := reserve(dst, headerBytes+24+2*maxVarint+len(resp.Labels)*maxVarint+nLabels*(2*maxVarint+40))

	b = putBytes(b, responseMagic+versionByte)
	b = putF64(b, resp.PhiMean)
	b = putF64(b, resp.NewRate)
	b = putF64(b, resp.QueueDelaySec)
	b = binary.AppendUvarint(b, uint64(len(resp.Labels)))
	b = binary.AppendUvarint(b, uint64(nLabels))
	for _, set := range resp.Labels {
		b = binary.AppendUvarint(b, uint64(len(set)))
		for i := range set {
			l := &set[i]
			b = putInt(b, l.ProposalIdx)
			b = putInt(b, l.Class)
			b = putBox(b, l.Box)
			b = putF64(b, l.Confidence)
		}
	}
	return b
}

// reader walks one message. The first malformed field sets err and empties
// the input, so every later read fails fast and returns zero; decoders check
// err once per frame or label set rather than after every field.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

func (r *reader) remaining() int { return len(r.b) - r.off }

// header checks the magic and version, naming what this side speaks when
// the peer sent anything else (a gob stream, JSON, another version).
func (r *reader) header(magic, what string) {
	if r.remaining() < headerBytes || string(r.b[r.off:r.off+len(magic)]) != magic {
		r.fail(fmt.Errorf("rpc: wire: not a %s: want magic %q and wire version %d", what, magic, WireVersion))
		return
	}
	if v := r.b[r.off+len(magic)]; v != WireVersion {
		r.fail(fmt.Errorf("rpc: wire: %s has wire version %d; this side speaks wire version %d", what, v, WireVersion))
		return
	}
	r.off += headerBytes
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.badVarint(n)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) int() int {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.badVarint(n)
		return 0
	}
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("rpc: wire: integer %d overflows int on this platform", v))
		return 0
	}
	r.off += n
	return int(v)
}

func (r *reader) badVarint(n int) {
	if n == 0 {
		r.fail(errTruncated)
	} else {
		r.fail(errors.New("rpc: wire: varint overflows 64 bits"))
	}
}

func (r *reader) f64() float64 {
	if r.remaining() < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// f64s fills dst from the next 8*len(dst) bytes under one length check.
func (r *reader) f64s(dst []float64) {
	if r.remaining() < 8*len(dst) {
		r.fail(errTruncated)
		return
	}
	src := r.b[r.off : r.off+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	r.off += len(src)
}

func (r *reader) box() geom.Box {
	var v [4]float64
	r.f64s(v[:])
	return geom.Box{X1: v[0], Y1: v[1], X2: v[2], Y2: v[3]}
}

// str copies the next string out of the message. A string equal to prev
// returns prev itself: consecutive frames nearly always share a Domain.
func (r *reader) str(prev string) string {
	n := r.uvarint()
	if n > uint64(r.remaining()) {
		r.fail(errTruncated)
		return ""
	}
	raw := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	if string(raw) == prev {
		return prev
	}
	return string(raw)
}

// flag reads a presence byte.
func (r *reader) flag() bool {
	if r.remaining() < 1 {
		r.fail(errTruncated)
		return false
	}
	v := r.b[r.off]
	if v > 1 {
		r.fail(fmt.Errorf("rpc: wire: presence byte is %d, want 0 or 1", v))
		return false
	}
	r.off++
	return v == 1
}

// claim charges a declared total of n elements, at size bytes each, against
// budget — the bytes of the message no earlier total has claimed.
func (r *reader) claim(budget *uint64, n, size uint64, what string) int {
	if n > *budget/size {
		r.fail(fmt.Errorf("rpc: wire: %d %s cannot fit in the %d unclaimed bytes that follow", n, what, *budget))
		return 0
	}
	*budget -= n * size
	return int(n)
}

// carve reads one per-frame (or per-set) count, which may take at most avail
// elements: what is left of the slab its total allocated.
func (r *reader) carve(avail int, what string) int {
	n := r.uvarint()
	if n > uint64(avail) {
		r.fail(fmt.Errorf("rpc: wire: %s counts exceed the message's declared total", what))
		return 0
	}
	return int(n)
}

// finish reports the first error, or an error if the message has bytes left
// over or declared more elements than its frames used.
func (r *reader) finish(unused int) error {
	switch {
	case r.err != nil:
		return r.err
	case unused != 0:
		return errors.New("rpc: wire: per-frame counts fall short of the message's declared totals")
	case r.remaining() != 0:
		return fmt.Errorf("rpc: wire: %d bytes after the end of the message", r.remaining())
	}
	return nil
}

// DecodeLabelRequest decodes one wire-format request into *req, replacing
// every field, on fresh memory. Nothing in *req aliases b afterwards.
// Zero-length slices and strings decode as nil and "". On error *req is left
// zero.
//
//shoggoth:hotpath
func DecodeLabelRequest(b []byte, req *LabelRequest) error {
	var fresh requestArena
	return fresh.decode(b, req)
}

// requestArena is the memory a decoded LabelRequest lives in: one slab per
// element kind, whatever the frame and proposal counts, plus the pointer
// view of the frames that the cloud API takes. A zero arena is ready to use
// and allocates its slabs on the first decode; a reused one (see getArena)
// allocates only when a request is larger than any it has held.
//
// Invariant: beyond their current length the two slabs that hold pointers —
// frames and proposals — and the view are all zero, so a carve from them
// starts empty and no Proposals, Features or GT of an earlier request can
// show through a later one. features and gts hold no pointers, and every
// element a request carves from them is overwritten before it is exposed.
type requestArena struct {
	frames    []video.Frame
	proposals []video.Proposal
	features  []float64
	gts       []video.GT
	view      []*video.Frame
}

// reset drops the arena's request, restoring the invariant. Every pointer
// into the arena handed out since the last reset is dead from here on.
func (a *requestArena) reset() {
	clear(a.frames)
	clear(a.proposals)
	clear(a.view)
	a.frames, a.proposals, a.view = a.frames[:0], a.proposals[:0], a.view[:0]
}

// slab resizes *s to n elements, on new memory only when its capacity falls
// short, and returns it.
func slab[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// pointers returns the []*video.Frame view of the request last decoded into
// a, which the cloud API takes.
func (a *requestArena) pointers() []*video.Frame {
	view := slab(&a.view, len(a.frames))
	for i := range a.frames {
		view[i] = &a.frames[i]
	}
	return view
}

// decode is DecodeLabelRequest into a's memory: the request it held before
// is dropped first, and *req points into a until the next decode or reset.
//
//shoggoth:hotpath
func (a *requestArena) decode(b []byte, req *LabelRequest) error {
	*req = LabelRequest{}
	a.reset()
	r := reader{b: b}
	r.header(requestMagic, "label request")
	out := LabelRequest{
		DeviceID: r.str(""),
		SLOClass: r.str(""),
		Alpha:    r.f64(),
		Lambda:   r.f64(),
	}
	totals := [4]uint64{r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()}
	budget := uint64(r.remaining())
	nFrames := r.claim(&budget, totals[0], minFrameBytes, "frames")
	nProposals := r.claim(&budget, totals[1], minProposalBytes, "proposals")
	nFeatures := r.claim(&budget, totals[2], 8, "feature values")
	nGT := r.claim(&budget, totals[3], minGTBytes, "ground truths")
	if r.err != nil {
		return r.err
	}
	// The four slabs below are the decoded message itself, each bounded by
	// the charge its total just passed.
	var (
		proposals []video.Proposal
		features  []float64
		gts       []video.GT
	)
	if nFrames > 0 {
		out.Frames = slab(&a.frames, nFrames)
	}
	if nProposals > 0 {
		proposals = slab(&a.proposals, nProposals)
	}
	if nFeatures > 0 {
		features = slab(&a.features, nFeatures)
	}
	if nGT > 0 {
		gts = slab(&a.gts, nGT)
	}
	domain := ""
	for i := range out.Frames {
		f := &out.Frames[i]
		f.Index = r.int()
		f.Time = r.f64()
		f.Domain = r.str(domain)
		domain = f.Domain
		f.DomainID = r.int()
		f.NumGT = r.int()
		f.Complexity = r.f64()
		f.Motion = r.f64()
		if n := r.carve(len(proposals), "proposal"); n > 0 {
			f.Proposals, proposals = proposals[:n:n], proposals[n:]
		}
		for j := range f.Proposals {
			p := &f.Proposals[j]
			p.TrackID = r.int()
			p.Anchor = r.box()
			r.f64s(p.TrueOffset[:])
			if r.flag() {
				if len(gts) == 0 {
					return errors.New("rpc: wire: ground-truth counts exceed the message's declared total")
				}
				p.GT, gts = &gts[0], gts[1:]
				p.GT.TrackID = r.int()
				p.GT.Class = r.int()
				p.GT.Box = r.box()
			}
			if n := r.carve(len(features), "feature"); n > 0 {
				p.Features, features = features[:n:n], features[n:]
				r.f64s(p.Features)
			}
		}
		if r.err != nil {
			return r.err
		}
	}
	if err := r.finish(len(proposals) + len(features) + len(gts)); err != nil {
		return err
	}
	*req = out
	return nil
}

// DecodeLabelResponse decodes one wire-format reply into *resp, replacing
// every field. Nothing in *resp aliases b afterwards. Zero-length label sets
// decode as nil. On error *resp is left zero.
//
//shoggoth:hotpath
func DecodeLabelResponse(b []byte, resp *LabelResponse) error {
	*resp = LabelResponse{}
	r := reader{b: b}
	r.header(responseMagic, "label reply")
	out := LabelResponse{
		PhiMean:       r.f64(),
		NewRate:       r.f64(),
		QueueDelaySec: r.f64(),
	}
	totals := [2]uint64{r.uvarint(), r.uvarint()}
	budget := uint64(r.remaining())
	nSets := r.claim(&budget, totals[0], minLabelSetBytes, "label sets")
	nLabels := r.claim(&budget, totals[1], minLabelBytes, "labels")
	if r.err != nil {
		return r.err
	}
	var labels []detect.TeacherLabel
	if nSets > 0 {
		//shoggoth:allow hotalloc -- the decoded label sets are the message's payload; one slab per reply
		out.Labels = make([][]detect.TeacherLabel, nSets)
	}
	if nLabels > 0 {
		//shoggoth:allow hotalloc -- every frame's labels, carved from one slab per reply
		labels = make([]detect.TeacherLabel, nLabels)
	}
	for i := range out.Labels {
		if n := r.carve(len(labels), "label"); n > 0 {
			out.Labels[i], labels = labels[:n:n], labels[n:]
		}
		for j := range out.Labels[i] {
			l := &out.Labels[i][j]
			l.ProposalIdx = r.int()
			l.Class = r.int()
			l.Box = r.box()
			l.Confidence = r.f64()
		}
		if r.err != nil {
			return r.err
		}
	}
	if err := r.finish(len(labels)); err != nil {
		return err
	}
	*resp = out
	return nil
}
