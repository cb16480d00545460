package video

import (
	"fmt"

	"shoggoth/internal/registry"
)

// Stock profile names.
const (
	ProfileDETRAC = "ua-detrac"
	ProfileKITTI  = "kitti"
	ProfileWaymo  = "waymo"
)

// profiles is the dataset profile registry; each value builds a fresh
// profile.
var profiles = registry.New[func() *Profile]("video", "profile")

// RegisterProfile adds a dataset profile to the registry, mirroring the
// strategy and cloud-policy registries: anything listing or resolving
// profiles reads this table, so a new workload needs zero edits elsewhere.
// Names are case-insensitive and must be unique; the factory must return a
// fresh profile per call.
func RegisterProfile(name, summary string, factory func() *Profile) error {
	if factory == nil {
		return fmt.Errorf("video: profile registration needs a factory")
	}
	_, err := profiles.Add(registry.Entry[func() *Profile]{Name: name, Summary: summary, Value: factory})
	return err
}

// MustRegisterProfile is RegisterProfile for init blocks; it panics on
// conflicts.
func MustRegisterProfile(name, summary string, factory func() *Profile) {
	if err := RegisterProfile(name, summary, factory); err != nil {
		panic(err)
	}
}

// ProfileByName returns a freshly-built registered profile
// (case-insensitive).
func ProfileByName(name string) (*Profile, error) {
	_, factory, err := profiles.Lookup(name)
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

// Profiles returns every registered profile in registration order (the
// paper's three datasets first).
func Profiles() []registry.Entry[func() *Profile] { return profiles.Entries() }

// StockProfiles returns the paper's three dataset profiles in paper order.
// The registry may hold more (that is the point of it); the paper's
// artefacts always compare exactly these.
func StockProfiles() []*Profile {
	return []*Profile{DETRACProfile(), KITTIProfile(), WaymoProfile()}
}

func init() {
	MustRegisterProfile(ProfileDETRAC,
		"dense urban traffic cameras, four vehicle classes, strong day/weather/night drift (UA-DETRAC)",
		DETRACProfile)
	MustRegisterProfile(ProfileKITTI,
		"suburban driving, single car class, mild daylight-only drift (KITTI)",
		KITTIProfile)
	MustRegisterProfile(ProfileWaymo,
		"mixed urban scenes with pedestrians and cyclists, rapid scene changes (Waymo Open)",
		WaymoProfile)
}

// DETRACProfile approximates UA-DETRAC: dense urban traffic cameras, four
// vehicle classes, strong day/weather/night drift. The hardest of the three
// (Edge-Only mAP 34.2 in the paper).
func DETRACProfile() *Profile {
	p := &Profile{
		Name:          ProfileDETRAC,
		Classes:       []string{"car", "bus", "van", "truck"},
		ClassSizes:    []float64{0.07, 0.16, 0.10, 0.14},
		AppearanceDim: 28,
		FPS:           30,
		Domains: []Domain{
			{Name: "sunny", IllumScale: 1.0, NoiseStd: 0.15, ClassMix: []float64{0.65, 0.10, 0.15, 0.10},
				ObjectRate: 10, DistractorRate: 4, BoxJitter: 0.06, GeoGain: 1.0, Complexity: 1.0},
			{Name: "cloudy", IllumScale: 0.82, NoiseStd: 0.18, ClassMix: []float64{0.60, 0.12, 0.15, 0.13},
				ObjectRate: 9, DistractorRate: 5, BoxJitter: 0.08, GeoGain: 0.82,
				GeoBias: [4]float64{0.10, 0.12, 0.12, 0.12}, Complexity: 0.95},
			{Name: "rainy", IllumScale: 0.68, NoiseStd: 0.24, ClassMix: []float64{0.55, 0.10, 0.20, 0.15},
				ObjectRate: 8, DistractorRate: 6, BoxJitter: 0.07, GeoGain: 0.80,
				GeoBias: [4]float64{0.20, 0.24, 0.26, 0.26}, Complexity: 1.15},
			{Name: "night", IllumScale: 0.46, NoiseStd: 0.26, ClassMix: []float64{0.50, 0.08, 0.12, 0.30},
				ObjectRate: 7, DistractorRate: 7, BoxJitter: 0.08, GeoGain: 0.72,
				GeoBias: [4]float64{0.30, -0.24, 0.34, 0.38}, Complexity: 0.80},
		},
		Script: []Segment{
			{DomainIndex: 0, Duration: 150}, {DomainIndex: 1, Duration: 120},
			{DomainIndex: 2, Duration: 120}, {DomainIndex: 0, Duration: 90},
			{DomainIndex: 3, Duration: 150}, {DomainIndex: 1, Duration: 90},
		},
		TransitionSec:   8,
		ProtoScale:      0.40,
		ObjectVarStd:    0.12,
		GeoNoise:        0.03,
		ObjectTTL:       [2]float64{6, 18},
		BaseFrameKB:     18.3,
		TeacherClassAcc: 0.96,
		TeacherBoxStd:   0.040,
		TeacherMissRate: 0.10,
		TeacherFPRate:   0.04,
		PretrainDomains: []int{0},
		PretrainSamples: 3000,
		Seed:            0xDE7AC,
	}
	p.genPrototypes(5, 0.35)
	return p
}

// KITTIProfile approximates KITTI (Car only): suburban driving, a single
// class, milder daylight-only drift (Edge-Only mAP 56.8 in the paper).
func KITTIProfile() *Profile {
	p := &Profile{
		Name:          ProfileKITTI,
		Classes:       []string{"car"},
		ClassSizes:    []float64{0.10},
		AppearanceDim: 28,
		FPS:           30,
		Domains: []Domain{
			{Name: "sunny", IllumScale: 1.0, NoiseStd: 0.14, ClassMix: []float64{1},
				ObjectRate: 5, DistractorRate: 3, BoxJitter: 0.06, GeoGain: 1.0, Complexity: 1.0},
			{Name: "overcast", IllumScale: 0.85, NoiseStd: 0.20, ClassMix: []float64{1},
				ObjectRate: 5, DistractorRate: 3, BoxJitter: 0.08, GeoGain: 0.85, Complexity: 0.95},
			{Name: "shade", IllumScale: 0.72, NoiseStd: 0.20, ClassMix: []float64{1},
				ObjectRate: 4, DistractorRate: 4, BoxJitter: 0.08, GeoGain: 0.80,
				GeoBias: [4]float64{0.14, 0.12, 0.16, 0.14}, Complexity: 0.90},
			{Name: "dusk", IllumScale: 0.60, NoiseStd: 0.22, ClassMix: []float64{1},
				ObjectRate: 4, DistractorRate: 4, BoxJitter: 0.07, GeoGain: 0.76,
				GeoBias: [4]float64{0.24, -0.18, 0.26, 0.28}, Complexity: 0.85},
		},
		Script: []Segment{
			{DomainIndex: 0, Duration: 180}, {DomainIndex: 1, Duration: 120},
			{DomainIndex: 3, Duration: 120}, {DomainIndex: 0, Duration: 120},
			{DomainIndex: 2, Duration: 90},
		},
		TransitionSec:   8,
		ProtoScale:      0.45,
		ObjectVarStd:    0.12,
		GeoNoise:        0.035,
		ObjectTTL:       [2]float64{6, 16},
		BaseFrameKB:     12.3,
		TeacherClassAcc: 0.98,
		TeacherBoxStd:   0.032,
		TeacherMissRate: 0.05,
		TeacherFPRate:   0.03,
		PretrainDomains: []int{0, 1},
		PretrainSamples: 2500,
		Seed:            0x1771,
	}
	p.genPrototypes(5, 0.30)
	return p
}

// WaymoProfile approximates Waymo Open: mixed urban scenes with pedestrians
// and cyclists, and rapid scene changes (short segments) — the profile where
// prompt retraining is most competitive, per Table I.
func WaymoProfile() *Profile {
	p := &Profile{
		Name:          ProfileWaymo,
		Classes:       []string{"vehicle", "pedestrian", "cyclist"},
		ClassSizes:    []float64{0.11, 0.035, 0.05},
		AppearanceDim: 28,
		FPS:           30,
		Domains: []Domain{
			{Name: "day", IllumScale: 1.0, NoiseStd: 0.16, ClassMix: []float64{0.60, 0.30, 0.10},
				ObjectRate: 8, DistractorRate: 4, BoxJitter: 0.07, GeoGain: 1.0, Complexity: 1.0},
			{Name: "dawn", IllumScale: 0.78, NoiseStd: 0.24, ClassMix: []float64{0.65, 0.25, 0.10},
				ObjectRate: 7, DistractorRate: 5, BoxJitter: 0.09, GeoGain: 0.80,
				GeoBias: [4]float64{0.10, 0.09, 0.12, 0.14}, Complexity: 0.90},
			{Name: "rain", IllumScale: 0.66, NoiseStd: 0.24, ClassMix: []float64{0.70, 0.20, 0.10},
				ObjectRate: 7, DistractorRate: 6, BoxJitter: 0.08, GeoGain: 0.78,
				GeoBias: [4]float64{0.20, 0.24, 0.26, 0.26}, Complexity: 1.12},
			{Name: "night", IllumScale: 0.48, NoiseStd: 0.26, ClassMix: []float64{0.75, 0.15, 0.10},
				ObjectRate: 6, DistractorRate: 7, BoxJitter: 0.08, GeoGain: 0.72,
				GeoBias: [4]float64{0.28, -0.22, 0.32, 0.34}, Complexity: 0.78},
		},
		Script: []Segment{
			{DomainIndex: 0, Duration: 90}, {DomainIndex: 1, Duration: 60},
			{DomainIndex: 2, Duration: 75}, {DomainIndex: 0, Duration: 60},
			{DomainIndex: 3, Duration: 90}, {DomainIndex: 1, Duration: 45},
			{DomainIndex: 2, Duration: 60},
		},
		TransitionSec:   6,
		ProtoScale:      0.40,
		ObjectVarStd:    0.13,
		GeoNoise:        0.04,
		ObjectTTL:       [2]float64{4, 11},
		BaseFrameKB:     15.1,
		TeacherClassAcc: 0.95,
		TeacherBoxStd:   0.038,
		TeacherMissRate: 0.10,
		TeacherFPRate:   0.04,
		PretrainDomains: []int{0},
		PretrainSamples: 2500,
		Seed:            0x3A7310,
	}
	p.genPrototypes(5, 0.35)
	return p
}
