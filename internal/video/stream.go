package video

import (
	"math"
	"math/rand/v2"

	"shoggoth/internal/geom"
)

// GT is the ground truth attached to a proposal that covers a real object.
type GT struct {
	TrackID int
	Class   int
	Box     geom.Box
}

// Proposal is one candidate region of a frame: the anchor box the detector
// would propose, the feature vector models observe, and (for real objects)
// the ground truth. Distractor proposals have GT == nil. Like the Frame that
// holds it, a Proposal — its Features and GT included — is never written
// after Next returns.
type Proposal struct {
	// TrackID identifies the persistent scene element behind this proposal
	// (objects and clutter share one id space); consumers use it for
	// temporally-consistent behaviour such as correlated teacher errors.
	TrackID    int
	Anchor     geom.Box
	Features   []float64
	GT         *GT
	TrueOffset geom.Offset // anchor→GT box offset; zero for distractors
}

// Frame is one generated video frame. It is immutable once Next returns it:
// any number of readers may retain and share it — a sample buffer, a
// training region that aliases a proposal's Features, every session of a
// Fleet stream group — and none may write to it or to anything it points to.
type Frame struct {
	Index      int
	Time       float64 // seconds since stream start
	Domain     string  // dominant domain name
	DomainID   int
	Proposals  []Proposal
	NumGT      int
	Complexity float64 // codec complexity factor of the active domain
	Motion     float64 // normalised inter-frame motion (codec compressibility)
}

// track is a persistent scene element: a moving object (class >= 0) or a
// background clutter region (class == -1). Persistence gives frames the
// short-interval temporal correlation the paper highlights.
type track struct {
	id        int
	class     int
	cx, cy    float64
	vx, vy    float64
	w, h      float64
	variation []float64
	diesAt    float64
}

// Stream generates frames of a drifting synthetic video.
type Stream struct {
	Profile *Profile

	rng      *rand.Rand
	time     float64
	frameIdx int
	nextID   int
	objects  []*track
	clutter  []*track
}

// NewStream creates a deterministic stream for the profile; streams with the
// same profile and seed produce identical frames.
func NewStream(p *Profile, seed uint64) *Stream {
	return &Stream{Profile: p, rng: rand.New(rand.NewPCG(p.Seed, seed))}
}

// Time returns the timestamp of the next frame to be generated.
func (s *Stream) Time() float64 { return s.time }

// Next generates the next frame and advances stream time by 1/FPS.
func (s *Stream) Next() *Frame {
	p := s.Profile
	t := s.time
	eff := p.EffectiveDomain(t)

	s.objects = s.updatePopulation(s.objects, eff.ObjectRate, t, true, eff)
	s.clutter = s.updatePopulation(s.clutter, eff.DistractorRate, t, false, eff)

	f := &Frame{
		Index:      s.frameIdx,
		Time:       t,
		Domain:     eff.Name,
		DomainID:   p.DomainIndexAt(t),
		Complexity: eff.Complexity,
	}
	dt := 1 / p.FPS
	var speed float64
	for _, tr := range s.objects {
		tr.step(dt)
		speed += math.Hypot(tr.vx, tr.vy)
		f.Proposals = append(f.Proposals, s.objectProposal(tr, eff))
	}
	f.NumGT = len(s.objects)
	for _, tr := range s.clutter {
		tr.step(dt)
		f.Proposals = append(f.Proposals, s.clutterProposal(tr, eff))
	}
	if n := len(s.objects); n > 0 {
		f.Motion = clamp01(speed / float64(n) * 12)
	}
	s.frameIdx++
	s.time += dt
	return f
}

// updatePopulation spawns and retires tracks so the live count follows the
// target rate while individual tracks persist for ObjectTTL seconds.
func (s *Stream) updatePopulation(pop []*track, rate, t float64, foreground bool, eff *Domain) []*track {
	alive := pop[:0]
	for _, tr := range pop {
		if tr.diesAt > t && tr.inScene() {
			alive = append(alive, tr)
		}
	}
	target := int(rate + 0.5)
	for len(alive) < target {
		alive = append(alive, s.spawn(t, foreground, eff))
	}
	return alive
}

func (s *Stream) spawn(t float64, foreground bool, eff *Domain) *track {
	p := s.Profile
	tr := &track{id: s.nextID}
	s.nextID++
	ttl := p.ObjectTTL[0] + s.rng.Float64()*(p.ObjectTTL[1]-p.ObjectTTL[0])
	tr.diesAt = t + ttl
	tr.cx = 0.1 + s.rng.Float64()*0.8
	tr.cy = 0.1 + s.rng.Float64()*0.8
	ang := s.rng.Float64() * 2 * math.Pi
	sp := 0.01 + s.rng.Float64()*0.05 // scene units per second
	tr.vx, tr.vy = sp*math.Cos(ang), sp*math.Sin(ang)
	if foreground {
		tr.class = sampleCategorical(s.rng, eff.ClassMix)
		base := p.ClassSizes[tr.class]
		tr.w = base * (0.85 + 0.3*s.rng.Float64())
		tr.h = base * (0.7 + 0.3*s.rng.Float64())
		tr.variation = s.randVector(p.AppearanceDim, p.ObjectVarStd)
	} else {
		tr.class = -1
		side := 0.04 + s.rng.Float64()*0.12
		tr.w, tr.h = side, side*(0.8+0.4*s.rng.Float64())
		tr.variation = s.randVector(p.AppearanceDim, p.ObjectVarStd*1.5)
	}
	return tr
}

func (tr *track) step(dt float64) {
	tr.cx += tr.vx * dt
	tr.cy += tr.vy * dt
}

func (tr *track) inScene() bool {
	return tr.cx > -0.1 && tr.cx < 1.1 && tr.cy > -0.1 && tr.cy < 1.1
}

func (tr *track) box() geom.Box { return geom.FromCenter(tr.cx, tr.cy, tr.w, tr.h) }

// objectProposal renders a foreground track under the effective domain:
// appearance features, a jittered anchor box and the geometry cue.
func (s *Stream) objectProposal(tr *track, eff *Domain) Proposal {
	p := s.Profile
	gtBox := tr.box()

	// Anchor: ground truth displaced by the systematic domain bias plus
	// random jitter; the detector must regress the correction.
	jit := eff.BoxJitter
	anchor := geom.FromCenter(
		tr.cx+(eff.GeoBias[0]+s.rng.NormFloat64()*jit)*tr.w,
		tr.cy+(eff.GeoBias[1]+s.rng.NormFloat64()*jit)*tr.h,
		tr.w*math.Exp(eff.GeoBias[2]+s.rng.NormFloat64()*jit*0.8),
		tr.h*math.Exp(eff.GeoBias[3]+s.rng.NormFloat64()*jit*0.8),
	)
	offset := geom.OffsetBetween(anchor, gtBox)

	feats := s.renderFeatures(p.Prototypes[tr.class], tr.variation, eff, offset)
	return Proposal{
		TrackID:    tr.id,
		Anchor:     anchor,
		Features:   feats,
		GT:         &GT{TrackID: tr.id, Class: tr.class, Box: gtBox},
		TrueOffset: offset,
	}
}

func (s *Stream) clutterProposal(tr *track, eff *Domain) Proposal {
	p := s.Profile
	proto := p.Background[tr.id%len(p.Background)]
	feats := s.renderFeatures(proto, tr.variation, eff, geom.Offset{})
	return Proposal{TrackID: tr.id, Anchor: tr.box(), Features: feats}
}

// renderFeatures composes the observable feature vector:
//
//	appearance = (prototype + objectVariation + preNoise)·illum + shift + postNoise
//	geometry   = trueOffset·geoGain + geoNoise
func (s *Stream) renderFeatures(proto, variation []float64, eff *Domain, offset geom.Offset) []float64 {
	p := s.Profile
	out := make([]float64, p.FeatureDim())
	for j := 0; j < p.AppearanceDim; j++ {
		v := proto[j] + variation[j] + s.rng.NormFloat64()*0.08
		out[j] = v*eff.IllumScale + eff.Shift[j] + s.rng.NormFloat64()*eff.NoiseStd
	}
	for k := 0; k < GeoDim; k++ {
		out[p.AppearanceDim+k] = offset[k]*eff.GeoGain + s.rng.NormFloat64()*p.GeoNoise
	}
	return out
}

func (s *Stream) randVector(n int, std float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = s.rng.NormFloat64() * std
	}
	return v
}

func sampleCategorical(rng *rand.Rand, probs []float64) int {
	var sum float64
	for _, p := range probs {
		sum += p
	}
	r := rng.Float64() * sum
	for i, p := range probs {
		r -= p
		if r <= 0 {
			return i
		}
	}
	return len(probs) - 1
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// PretrainSample is one example of the offline pretraining dataset.
type PretrainSample struct {
	Features []float64
	Class    int // BackgroundClass() for negatives
	Offset   geom.Offset
	HasBox   bool
}

// GeneratePretrainSet synthesises the offline dataset the student was
// trained on before deployment: samples drawn from the profile's
// PretrainDomains only, with true labels. The deployed stream then drifts
// into domains this set never covered — the paper's data-drift setting.
func GeneratePretrainSet(p *Profile, n int, rng *rand.Rand) []PretrainSample {
	if len(p.PretrainDomains) == 0 {
		panic("video: profile has no pretrain domains")
	}
	s := &Stream{Profile: p, rng: rng}
	out := make([]PretrainSample, 0, n)
	for i := 0; i < n; i++ {
		eff := &p.Domains[p.PretrainDomains[rng.IntN(len(p.PretrainDomains))]]
		if rng.Float64() < 0.3 { // negatives
			proto := p.Background[rng.IntN(len(p.Background))]
			feats := s.renderFeatures(proto, s.randVector(p.AppearanceDim, p.ObjectVarStd*1.5), eff, geom.Offset{})
			out = append(out, PretrainSample{Features: feats, Class: p.BackgroundClass()})
			continue
		}
		class := sampleCategorical(rng, eff.ClassMix)
		var offset geom.Offset
		for k := 0; k < GeoDim; k++ {
			scale := 0.25
			if k >= 2 {
				scale = 0.18
			}
			offset[k] = eff.GeoBias[k] + rng.NormFloat64()*scale
		}
		feats := s.renderFeatures(p.Prototypes[class], s.randVector(p.AppearanceDim, p.ObjectVarStd), eff, offset)
		out = append(out, PretrainSample{Features: feats, Class: class, Offset: offset, HasBox: true})
	}
	return out
}
