package video

import "fmt"

// SparseStream is the events-fidelity view of a drifting synthetic world:
// frame metadata only — index, time, effective domain and its complexity —
// and the proposal count a rendered frame would carry. Nothing at events
// fidelity renders proposals, trains on features or keeps population state,
// so every answer is a pure function of (profile, time): a device that
// samples two frames a second pays for two, never the 30/s the camera
// nominally produces, and in any order.
type SparseStream struct {
	Profile *Profile
}

// NewSparseStream creates a sparse stream over p. The metadata depends on
// the profile and the frame time alone, so seed is unused; it stays in the
// signature for the callers that pass a device's stream seed.
func NewSparseStream(p *Profile, seed uint64) *SparseStream {
	return &SparseStream{Profile: p}
}

// Meta returns the frame's metadata — index, time, domain, complexity —
// without materializing proposals, tracks or jitter draws. This is the
// events-fidelity fast path: the analytic cloud cost model prices uploads
// from byte counts (Complexity), routes on DomainID and derives φ from
// elapsed time, so fleet devices never need the proposal geometry a full
// Frame carries.
//
// The fields are EffectiveDomain(t)'s, blended one at a time (lerp), so no
// blended Domain is built inside a transition window.
func (s *SparseStream) Meta(idx int, t float64) *Frame {
	f := new(Frame)
	s.MetaInto(f, idx, t)
	return f
}

// MetaInto is Meta writing into dst, which it overwrites whole: a caller
// that keeps its frames by value materializes them without allocating.
// It sets every field in turn rather than assigning a composite literal,
// which the compiler builds aside and then copies with write barriers;
// TestMetaIntoOverwritesWhole catches a field added to Frame and not here.
//
//shoggoth:hotpath
func (s *SparseStream) MetaInto(dst *Frame, idx int, t float64) {
	from, to, blend := s.Profile.blendAt(t)
	a, b := &s.Profile.Domains[from], &s.Profile.Domains[to]
	dst.Index, dst.Time = idx, t
	dst.Domain, dst.DomainID = dominantName(a, b, blend), to
	dst.Proposals, dst.NumGT = nil, 0
	dst.Complexity, dst.Motion = lerp(a.Complexity, b.Complexity, blend), 0
}

// PackedMeta is a sampled frame's metadata in 16 bytes: what MetaInto
// writes, less what its index and the stream recover. A device holds its
// sampled frames this way until a batch's cloud call, where Unpack builds
// the frames for the length of the call.
type PackedMeta struct {
	Index int32
	// DomainID is the frame's DomainID; NameID indexes the Domains entry
	// whose name the frame carries, which is the blend's other domain in
	// the first half of a transition window.
	DomainID, NameID uint16
	Complexity       float64
}

// Pack returns the metadata of frame idx, due at t = float64(idx)·dt, as a
// PackedMeta: Unpack(dst, Pack(idx, t), dt) writes exactly what
// MetaInto(dst, idx, t) does. It panics on an index past int32 or a domain
// index past uint16, which no packed field could hold.
//
//shoggoth:hotpath
func (s *SparseStream) Pack(idx int, t float64) PackedMeta {
	from, to, blend := s.Profile.blendAt(t)
	name := to
	if blend < 0.5 { // dominantName's rule
		name = from
	}
	m := PackedMeta{Index: int32(idx), DomainID: uint16(to), NameID: uint16(name)}
	if int(m.Index) != idx || int(m.DomainID) != to || int(m.NameID) != name {
		panic(fmt.Sprintf("video: frame %d of domain %d (named for %d) does not pack", idx, to, name))
	}
	m.Complexity = lerp(s.Profile.Domains[from].Complexity, s.Profile.Domains[to].Complexity, blend)
	return m
}

// Unpack overwrites dst whole with the frame m packs, due at
// float64(m.Index)·dt. It copies fields and resolves no script, so a batch
// of packed frames unpacks for a fraction of what MetaInto costs.
//
//shoggoth:hotpath
func (s *SparseStream) Unpack(dst *Frame, m PackedMeta, dt float64) {
	dst.Index, dst.Time = int(m.Index), float64(m.Index)*dt
	dst.Domain, dst.DomainID = s.Profile.Domains[m.NameID].Name, int(m.DomainID)
	dst.Proposals, dst.NumGT = nil, 0
	dst.Complexity, dst.Motion = m.Complexity, 0
}

// Regions returns the proposal count a materialized frame at time t would
// carry (objects plus clutter) — the analytic stand-in for len(Proposals)
// when pricing label-downlink bytes without building the proposals. The
// rates are EffectiveDomain(t)'s, blended one at a time as in Meta.
//
//shoggoth:hotpath
func (s *SparseStream) Regions(t float64) int {
	from, to, blend := s.Profile.blendAt(t)
	a, b := &s.Profile.Domains[from], &s.Profile.Domains[to]
	return int(lerp(a.ObjectRate, b.ObjectRate, blend)+0.5) + int(lerp(a.DistractorRate, b.DistractorRate, blend)+0.5)
}
