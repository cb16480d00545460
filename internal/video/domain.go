// Package video synthesises endless drifting video streams: sequences of
// frames whose object appearance, class mixture, scene density and
// localisation difficulty change over time according to a scenario script of
// weather/illumination domains. It substitutes for the UA-DETRAC, KITTI and
// Waymo streams of the paper (see DESIGN.md §2): the generator manufactures
// exactly the two drift mechanisms the paper names — class-distribution
// shift and per-class appearance shift — with controllable speed.
package video

import "fmt"

// Domain describes one scene condition (e.g. sunny, rainy, night) as a
// transform of the class-prototype feature space plus scene statistics.
type Domain struct {
	// Name identifies the domain (sunny, cloudy, rainy, night, ...).
	Name string
	// IllumScale multiplies appearance features (night compresses them
	// towards zero, shrinking class separation for an unadapted model).
	IllumScale float64
	// Shift is an additive appearance-space displacement (AppearanceDim
	// long) — the domain-to-domain covariate shift.
	Shift []float64
	// NoiseStd is post-transform appearance noise (sensor noise, rain).
	NoiseStd float64
	// ClassMix is the categorical distribution over foreground classes
	// (class imbalance; shifts between domains per the paper's Fig. 1c).
	ClassMix []float64
	// ObjectRate is the mean number of concurrent foreground objects.
	ObjectRate float64
	// DistractorRate is the mean number of concurrent background clutter
	// regions that the detector must reject.
	DistractorRate float64
	// BoxJitter scales the random part of anchor-box perturbation
	// (localisation difficulty).
	BoxJitter float64
	// GeoGain attenuates the geometry cue carried in the feature vector;
	// the box head must learn the domain-specific inverse gain.
	GeoGain float64
	// GeoBias is a systematic anchor-offset bias (e.g. headlight glare
	// displacing apparent centers at night).
	GeoBias [4]float64
	// Complexity scales compressed frame size in the codec model.
	Complexity float64
}

// Validate checks internal consistency against the given class count and
// appearance dimension.
func (d *Domain) Validate(numClasses, appearanceDim int) error {
	if len(d.ClassMix) != numClasses {
		return fmt.Errorf("video: domain %s: ClassMix has %d entries, want %d", d.Name, len(d.ClassMix), numClasses)
	}
	if len(d.Shift) != appearanceDim {
		return fmt.Errorf("video: domain %s: Shift has %d entries, want %d", d.Name, len(d.Shift), appearanceDim)
	}
	var sum float64
	for _, p := range d.ClassMix {
		if p < 0 {
			return fmt.Errorf("video: domain %s: negative class probability", d.Name)
		}
		sum += p
	}
	if sum <= 0 {
		return fmt.Errorf("video: domain %s: empty class mix", d.Name)
	}
	return nil
}

// lerpDomain interpolates every parameter of a and b with blend t ∈ [0, 1]
// (t=0 → a), producing the effective domain during a scene transition.
func lerpDomain(a, b *Domain, t float64) *Domain {
	if t <= 0 {
		return a
	}
	if t >= 1 {
		return b
	}
	out := &Domain{
		Name:           dominantName(a, b, t),
		IllumScale:     lerp(a.IllumScale, b.IllumScale, t),
		NoiseStd:       lerp(a.NoiseStd, b.NoiseStd, t),
		ObjectRate:     lerp(a.ObjectRate, b.ObjectRate, t),
		DistractorRate: lerp(a.DistractorRate, b.DistractorRate, t),
		BoxJitter:      lerp(a.BoxJitter, b.BoxJitter, t),
		GeoGain:        lerp(a.GeoGain, b.GeoGain, t),
		Complexity:     lerp(a.Complexity, b.Complexity, t),
	}
	out.Shift = make([]float64, len(a.Shift))
	for i := range out.Shift {
		out.Shift[i] = lerp(a.Shift[i], b.Shift[i], t)
	}
	out.ClassMix = make([]float64, len(a.ClassMix))
	var sum float64
	for i := range out.ClassMix {
		out.ClassMix[i] = lerp(a.ClassMix[i], b.ClassMix[i], t)
		sum += out.ClassMix[i]
	}
	for i := range out.ClassMix {
		out.ClassMix[i] /= sum
	}
	for i := 0; i < 4; i++ {
		out.GeoBias[i] = lerp(a.GeoBias[i], b.GeoBias[i], t)
	}
	return out
}

// lerp is one parameter of lerpDomain(a, b, t): x (a's value) at t ≤ 0, y
// (b's) at t ≥ 1, x + (y−x)·t between. The events-fidelity stream reads
// single parameters through it, so it never builds a blended Domain.
func lerp(x, y, t float64) float64 {
	if t <= 0 {
		return x
	}
	if t >= 1 {
		return y
	}
	return x + (y-x)*t
}

func dominantName(a, b *Domain, t float64) string {
	if t < 0.5 {
		return a.Name
	}
	return b.Name
}

// Segment is one entry of a scenario script: the domain active for Duration
// seconds.
type Segment struct {
	DomainIndex int
	Duration    float64 // seconds
}
