package video

import (
	"math"
	"reflect"
	"testing"
)

// TestSparseStreamRandomAccess locks the sparse stream's core contract:
// metadata is a pure function of (profile, index, time) — identical across
// stream instances and independent of query order.
func TestSparseStreamRandomAccess(t *testing.T) {
	p := DETRACProfile()
	dt := 1 / p.FPS
	a := NewSparseStream(p, 7)
	b := NewSparseStream(p, 7)

	// b answers out of order and interleaved with unrelated frames.
	fb200 := b.Meta(200, 200*dt)
	b.Meta(5000, 5000*dt)
	fb10 := b.Meta(10, 10*dt)

	if fa := a.Meta(10, 10*dt); !reflect.DeepEqual(fa, fb10) {
		t.Error("frame 10 differs between in-order and out-of-order queries")
	}
	if fa := a.Meta(200, 200*dt); !reflect.DeepEqual(fa, fb200) {
		t.Error("frame 200 differs between stream instances")
	}
}

// dirtyFrame returns a frame whose every field is set to a value no frame
// carries. It is built field by field through reflection, so a field added
// to Frame is dirtied too.
func dirtyFrame(t testing.TB) Frame {
	var dirty Frame
	v := reflect.ValueOf(&dirty).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(-7)
		case reflect.Float64:
			f.SetFloat(math.NaN())
		case reflect.String:
			f.SetString("stale")
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("Frame.%s: no dirty value for a %s field; add one", v.Type().Field(i).Name, f.Kind())
		}
	}
	return dirty
}

// TestMetaIntoOverwritesWhole: MetaInto, and Unpack of what Pack returns,
// over a frame whose every field is set leave exactly Meta's frame, so a
// reused frame carries nothing of the one before it.
func TestMetaIntoOverwritesWhole(t *testing.T) {
	p := DETRACProfile()
	s := NewSparseStream(p, 3)
	dt := 1 / p.FPS
	for _, idx := range []int{0, 100, 3000, 50000} {
		tm := float64(idx) * dt
		want := s.Meta(idx, tm)
		dirty := dirtyFrame(t)
		s.MetaInto(&dirty, idx, tm)
		if !reflect.DeepEqual(&dirty, want) {
			t.Fatalf("frame %d: MetaInto over a used frame left %+v, Meta gives %+v", idx, dirty, *want)
		}
		dirty = dirtyFrame(t)
		s.Unpack(&dirty, s.Pack(idx, tm), dt)
		if !reflect.DeepEqual(&dirty, want) {
			t.Fatalf("frame %d: Unpack over a used frame left %+v, Meta gives %+v", idx, dirty, *want)
		}
	}
}

// TestSparseStreamShape checks what an events-fidelity frame is: the index
// and time it was asked for, a positive complexity, and nothing rendered —
// no proposals, no ground truth — while Regions still prices the proposals
// a rendered frame would carry.
func TestSparseStreamShape(t *testing.T) {
	p := DETRACProfile()
	s := NewSparseStream(p, 3)
	dt := 1 / p.FPS
	for _, idx := range []int{0, 100, 3000, 50000} {
		tm := float64(idx) * dt
		f := s.Meta(idx, tm)
		if f.Index != idx || f.Time != tm {
			t.Fatalf("frame (%d, %v) came back as (%d, %v)", idx, tm, f.Index, f.Time)
		}
		if f.Complexity <= 0 {
			t.Errorf("frame %d: non-positive complexity", idx)
		}
		if f.Proposals != nil || f.NumGT != 0 {
			t.Fatalf("frame %d carries %d proposals, %d ground truth — metadata frames render none", idx, len(f.Proposals), f.NumGT)
		}
		if s.Regions(tm) <= 0 {
			t.Errorf("frame %d: Regions %d, want a positive proposal count", idx, s.Regions(tm))
		}
	}
}

// TestSparseStreamMetaMatchesStream is the events-vs-full metadata
// contract: over one script pass of every stock profile, Meta(f.Index,
// f.Time) agrees with the rendered frame f of NewStream on everything an
// events-fidelity device reads — index, time, domain and its id, and
// complexity.
func TestSparseStreamMetaMatchesStream(t *testing.T) {
	for _, p := range StockProfiles() {
		full := NewStream(p, 1)
		sparse := NewSparseStream(p, 1)
		n := int(p.ScriptDuration() * p.FPS)
		for i := 0; i < n; i++ {
			f := full.Next()
			m := sparse.Meta(f.Index, f.Time)
			if m.Index != f.Index || m.Time != f.Time || m.Domain != f.Domain ||
				m.DomainID != f.DomainID || m.Complexity != f.Complexity {
				t.Fatalf("%s frame %d: Meta gives (%d, %v, %q, %d, %v), the stream (%d, %v, %q, %d, %v)",
					p.Name, i, m.Index, m.Time, m.Domain, m.DomainID, m.Complexity,
					f.Index, f.Time, f.Domain, f.DomainID, f.Complexity)
			}
		}
	}
}

// TestSparseStreamMatchesEffectiveDomain is the oracle for the blended
// fields: Meta and Regions read name, complexity and rates one parameter at
// a time, and must agree bit for bit with the whole Domain that
// EffectiveDomain builds. Every script segment of every stock profile is
// probed at its first instant (blend 0), mid-blend, just below blend 1 and
// past the window, on the second pass of the script, so segment 0 blends in
// from the last segment (the wrap).
func TestSparseStreamMatchesEffectiveDomain(t *testing.T) {
	for _, p := range StockProfiles() {
		s := NewSparseStream(p, 1)
		tr := p.TransitionSec
		start := p.ScriptDuration() // the second pass: segment 0 follows the last one
		for i, seg := range p.Script {
			prev := p.Script[(i+len(p.Script)-1)%len(p.Script)].DomainIndex
			for k, off := range []float64{0, tr / 2, tr * (1 - 1e-12), tr + 1} {
				tm := start + off
				// The probes must land where they claim: the blend itself is
				// what the oracle is about.
				if _, _, blend := p.blendAt(tm); prev != seg.DomainIndex &&
					(k == 1 && !(blend > 0 && blend < 1) || k == 2 && !(blend > 0.999 && blend < 1)) {
					t.Fatalf("%s segment %d at +%v s: blend %v", p.Name, i, off, blend)
				}
				eff := p.EffectiveDomain(tm)
				m := s.Meta(7, tm)
				if m.Domain != eff.Name || m.DomainID != p.DomainIndexAt(tm) ||
					math.Float64bits(m.Complexity) != math.Float64bits(eff.Complexity) {
					t.Fatalf("%s segment %d at +%v s: Meta gives (%q, %d, %v), EffectiveDomain (%q, %d, %v)",
						p.Name, i, off, m.Domain, m.DomainID, m.Complexity, eff.Name, p.DomainIndexAt(tm), eff.Complexity)
				}
				want := int(eff.ObjectRate+0.5) + int(eff.DistractorRate+0.5)
				if got := s.Regions(tm); got != want {
					t.Fatalf("%s segment %d at +%v s: Regions %d, EffectiveDomain gives %d", p.Name, i, off, got, want)
				}
			}
			start += seg.Duration
		}
	}
}

// FuzzPackedMetaMatchesMetaInto holds the packed form to the frame it
// stands for: over a stock profile, or a three-segment script of two
// domains with fuzzed frame rate, transition window, segment lengths and
// complexities, Unpack(Pack(idx, t)) must overwrite a dirty frame with
// exactly what MetaInto(idx, t) writes, floats compared by Float64bits, at
// t = float64(idx)·dt. The script holds a transition between the two
// domains, one from a domain into itself (no blend) and the wrap from the
// last segment into the first. The checked-in seeds land at a window's
// first frame (blend 0, named for the domain blended from), at a blend of
// exactly 0.5 (named for the domain blended into), just below blend 1 and
// past the window.
func FuzzPackedMetaMatchesMetaInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, stock uint8, fps, transition, seg0, seg1, c0, c1 float64, idx uint32) {
		p := &Profile{
			FPS:           fps,
			TransitionSec: transition,
			Domains:       []Domain{{Name: "d0", Complexity: c0}, {Name: "d1", Complexity: c1}},
			Script:        []Segment{{0, seg0}, {1, seg1}, {1, seg0}},
		}
		if stocks := StockProfiles(); int(stock) < len(stocks) {
			p = stocks[stock]
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !(p.FPS >= 1 && p.FPS <= 1000) || !finite(p.TransitionSec) || !(seg0 > 0 && seg0 <= 1e6) ||
			!(seg1 > 0 && seg1 <= 1e6) || !finite(c0) || !finite(c1) || idx > math.MaxInt32 {
			t.Skip()
		}
		s := NewSparseStream(p, 1)
		dt := 1 / p.FPS
		k := int(idx)
		tm := float64(k) * dt
		var want Frame
		s.MetaInto(&want, k, tm)
		got := dirtyFrame(t)
		s.Unpack(&got, s.Pack(k, tm), dt)
		bits := math.Float64bits
		if !reflect.DeepEqual(got, want) || bits(got.Time) != bits(want.Time) ||
			bits(got.Complexity) != bits(want.Complexity) || bits(got.Motion) != bits(want.Motion) {
			_, _, blend := p.blendAt(tm)
			t.Fatalf("frame %d at %v s (blend %v): unpacked %+v, MetaInto %+v", k, tm, blend, got, want)
		}
	})
}
