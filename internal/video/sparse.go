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
func (s *SparseStream) Meta(idx int, t float64) *Frame {
	p := s.Profile
	eff := p.EffectiveDomain(t)
	return &Frame{
		Index:      idx,
		Time:       t,
		Domain:     eff.Name,
		DomainID:   p.DomainIndexAt(t),
		Complexity: eff.Complexity,
	}
}

// Regions returns the proposal count a materialized frame at time t would
// carry (objects plus clutter) — the analytic stand-in for len(Proposals)
// when pricing label-downlink bytes without building the proposals.
func (s *SparseStream) Regions(t float64) int {
	eff := s.Profile.EffectiveDomain(t)
	return int(eff.ObjectRate+0.5) + int(eff.DistractorRate+0.5)
}
