package video

import (
	"fmt"
	"math/rand/v2"
)

// GeoDim is the number of geometry-cue feature dimensions (one per box
// offset component).
const GeoDim = 4

// Profile bundles everything that defines a dataset-like workload: the
// domain set, the scenario script, class prototypes, teacher quality and
// codec constants. The three stock profiles approximate UA-DETRAC, KITTI and
// Waymo Open as characterised in the paper's evaluation.
type Profile struct {
	Name    string
	Classes []string
	// ClassSizes is the typical box side length per class (normalised
	// scene units).
	ClassSizes []float64
	// AppearanceDim is the appearance part of the feature vector.
	AppearanceDim int
	FPS           float64

	Domains       []Domain
	Script        []Segment
	TransitionSec float64

	// Prototypes are the per-class appearance prototypes; Background are
	// clutter prototypes. Both are produced deterministically from Seed.
	Prototypes [][]float64
	Background [][]float64
	// ProtoScale controls class separation in appearance space.
	ProtoScale float64
	// ObjectVarStd is per-object appearance variation around the prototype.
	ObjectVarStd float64
	// GeoNoise is additive noise on the geometry cue.
	GeoNoise float64
	// ObjectTTL is the [min, max] lifetime of a tracked object in seconds.
	ObjectTTL [2]float64

	// BaseFrameKB is the mean H.264 compressed frame size (KB) at
	// complexity 1.0 — calibrated so Cloud-Only uplink matches Table I.
	BaseFrameKB float64

	// Teacher quality knobs (the golden model is imperfect; Cloud-Only mAP
	// in Table I is the teacher ceiling).
	TeacherClassAcc float64 // probability the class label is correct
	TeacherBoxStd   float64 // box jitter of teacher labels
	TeacherMissRate float64 // probability an object is not labelled
	TeacherFPRate   float64 // probability a distractor is labelled as an object

	// PretrainDomains lists domain indices covered by offline pretraining
	// (the rest is what the stream drifts into). PretrainSamples is the
	// offline dataset size.
	PretrainDomains []int
	PretrainSamples int

	// Seed makes the profile's world (prototypes, domain shifts)
	// deterministic.
	Seed uint64
}

// FeatureDim returns the full feature-vector length.
func (p *Profile) FeatureDim() int { return p.AppearanceDim + GeoDim }

// NumClasses returns the number of foreground classes.
func (p *Profile) NumClasses() int { return len(p.Classes) }

// BackgroundClass returns the label index used for negatives.
func (p *Profile) BackgroundClass() int { return len(p.Classes) }

// ScriptDuration returns the total duration of one pass of the script.
func (p *Profile) ScriptDuration() float64 {
	var d float64
	for _, s := range p.Script {
		d += s.Duration
	}
	return d
}

// Validate checks the profile for internal consistency.
func (p *Profile) Validate() error {
	if len(p.Classes) == 0 {
		return fmt.Errorf("video: profile %s: no classes", p.Name)
	}
	if len(p.ClassSizes) != len(p.Classes) {
		return fmt.Errorf("video: profile %s: ClassSizes length mismatch", p.Name)
	}
	if len(p.Domains) == 0 || len(p.Script) == 0 {
		return fmt.Errorf("video: profile %s: empty domains or script", p.Name)
	}
	for _, s := range p.Script {
		if s.DomainIndex < 0 || s.DomainIndex >= len(p.Domains) {
			return fmt.Errorf("video: profile %s: script references domain %d of %d", p.Name, s.DomainIndex, len(p.Domains))
		}
		if s.Duration <= 0 {
			return fmt.Errorf("video: profile %s: non-positive segment duration", p.Name)
		}
	}
	for i := range p.Domains {
		if err := p.Domains[i].Validate(len(p.Classes), p.AppearanceDim); err != nil {
			return err
		}
	}
	if len(p.Prototypes) != len(p.Classes) {
		return fmt.Errorf("video: profile %s: prototype count mismatch", p.Name)
	}
	return nil
}

// segmentAt resolves the script segment active at time t (the script cycles
// forever) and returns the active segment index and the offset into it.
func (p *Profile) segmentAt(t float64) (idx int, offset float64) {
	total := p.ScriptDuration()
	if total <= 0 {
		return 0, 0
	}
	t = mod(t, total)
	for i, s := range p.Script {
		if t < s.Duration {
			return i, t
		}
		t -= s.Duration
	}
	return len(p.Script) - 1, p.Script[len(p.Script)-1].Duration
}

// EffectiveDomain returns the domain parameters in force at stream time t,
// blending across TransitionSec at segment boundaries.
func (p *Profile) EffectiveDomain(t float64) *Domain {
	from, to, blend := p.blendAt(t)
	return lerpDomain(&p.Domains[from], &p.Domains[to], blend)
}

// blendAt resolves the script at stream time t into the two indices into
// Domains that EffectiveDomain(t) blends, and their blend:
// lerpDomain(&Domains[from], &Domains[to], blend) is the effective domain.
// to is the active segment's domain; from is the one before it inside a
// transition window, and to with blend 0 outside one.
func (p *Profile) blendAt(t float64) (from, to int, blend float64) {
	idx, offset := p.segmentAt(t)
	to = p.Script[idx].DomainIndex
	if p.TransitionSec <= 0 || offset >= p.TransitionSec {
		return to, to, 0
	}
	prevIdx := idx - 1
	if prevIdx < 0 {
		prevIdx = len(p.Script) - 1
	}
	if from = p.Script[prevIdx].DomainIndex; from == to {
		return to, to, 0
	}
	return from, to, offset / p.TransitionSec
}

// DomainIndexAt returns the index (into Domains) of the dominant domain at t.
func (p *Profile) DomainIndexAt(t float64) int {
	idx, _ := p.segmentAt(t)
	return p.Script[idx].DomainIndex
}

// genPrototypes fills Prototypes/Background and per-domain Shift vectors
// deterministically from Seed.
func (p *Profile) genPrototypes(numBackground int, shiftScale float64) {
	rng := rand.New(rand.NewPCG(p.Seed, 0x5067676f74)) // "Shoggot"
	gen := func(n int, scale float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			v := make([]float64, p.AppearanceDim)
			for j := range v {
				v[j] = rng.NormFloat64() * scale
			}
			out[i] = v
		}
		return out
	}
	p.Prototypes = gen(len(p.Classes), p.ProtoScale)
	p.Background = gen(numBackground, p.ProtoScale*0.8)
	for i := range p.Domains {
		if p.Domains[i].Shift == nil {
			shift := make([]float64, p.AppearanceDim)
			for j := range shift {
				shift[j] = rng.NormFloat64() * shiftScale
			}
			p.Domains[i].Shift = shift
		}
	}
	// The first domain is the "home" domain of offline pretraining: zero
	// shift, so pretraining data is centred.
	if len(p.Domains) > 0 {
		for j := range p.Domains[0].Shift {
			p.Domains[0].Shift[j] = 0
		}
	}
}

func mod(a, b float64) float64 {
	m := a - float64(int(a/b))*b
	if m < 0 {
		m += b
	}
	return m
}
