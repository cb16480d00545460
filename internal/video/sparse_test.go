package video

import (
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
