package video

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
	dom, a, b, blend := s.Profile.blendAt(t)
	dst.Index, dst.Time = idx, t
	dst.Domain, dst.DomainID = dominantName(a, b, blend), dom
	dst.Proposals, dst.NumGT = nil, 0
	dst.Complexity, dst.Motion = lerp(a.Complexity, b.Complexity, blend), 0
}

// Regions returns the proposal count a materialized frame at time t would
// carry (objects plus clutter) — the analytic stand-in for len(Proposals)
// when pricing label-downlink bytes without building the proposals. The
// rates are EffectiveDomain(t)'s, blended one at a time as in Meta.
//
//shoggoth:hotpath
func (s *SparseStream) Regions(t float64) int {
	_, a, b, blend := s.Profile.blendAt(t)
	return int(lerp(a.ObjectRate, b.ObjectRate, blend)+0.5) + int(lerp(a.DistractorRate, b.DistractorRate, blend)+0.5)
}
