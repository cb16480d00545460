package video

import (
	"math"
	"testing"
)

// boundaryProfile is a small valid profile with unequal segments, so exact
// boundary arithmetic is easy to eyeball: A[0,10) B[10,30) A[30,60),
// script duration 60.
func boundaryProfile() *Profile {
	p := DETRACProfile()
	p.TransitionSec = 0
	p.Script = []Segment{
		{DomainIndex: 0, Duration: 10},
		{DomainIndex: 1, Duration: 20},
		{DomainIndex: 0, Duration: 30},
	}
	return p
}

func TestProfileValidateErrorPaths(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"no classes", func(p *Profile) { p.Classes = nil; p.ClassSizes = nil }},
		{"class sizes mismatch", func(p *Profile) { p.ClassSizes = p.ClassSizes[:1] }},
		{"empty script", func(p *Profile) { p.Script = nil }},
		{"empty domains", func(p *Profile) { p.Domains = nil }},
		{"bad domain index", func(p *Profile) { p.Script[0].DomainIndex = len(p.Domains) }},
		{"negative domain index", func(p *Profile) { p.Script[0].DomainIndex = -1 }},
		{"non-positive segment", func(p *Profile) { p.Script[1].Duration = 0 }},
		{"negative segment", func(p *Profile) { p.Script[1].Duration = -5 }},
		{"prototype mismatch", func(p *Profile) { p.Prototypes = p.Prototypes[:1] }},
		{"domain class mix mismatch", func(p *Profile) { p.Domains[0].ClassMix = p.Domains[0].ClassMix[:2] }},
	}
	for _, tc := range cases {
		p := DETRACProfile()
		p.Script = append([]Segment(nil), p.Script...)
		tc.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid profile", tc.name)
		}
	}
}

func TestScriptCyclesAtExactBoundaries(t *testing.T) {
	p := boundaryProfile()
	total := p.ScriptDuration()
	if total != 60 {
		t.Fatalf("script duration: got %v", total)
	}
	// Interior boundaries resolve to the segment that STARTS there.
	if got := p.DomainIndexAt(10); got != 1 {
		t.Fatalf("t=10 should open segment 1's domain, got domain %d", got)
	}
	if got := p.DomainIndexAt(30); got != 0 {
		t.Fatalf("t=30 should open segment 2's domain, got domain %d", got)
	}
	// t == ScriptDuration() and its multiples wrap to the first segment.
	for _, mult := range []float64{1, 2, 3, 7} {
		at := total * mult
		if got := p.DomainIndexAt(at); got != p.Script[0].DomainIndex {
			t.Fatalf("t=%v (= %v cycles) should wrap to segment 0, got domain %d", at, mult, got)
		}
		if d := p.EffectiveDomain(at); d.Name != p.Domains[p.Script[0].DomainIndex].Name {
			t.Fatalf("effective domain at t=%v: got %s", at, d.Name)
		}
	}
	// Mid-cycle times repeat exactly one period later.
	for _, at := range []float64{5, 10, 29.5, 59.9} {
		if p.DomainIndexAt(at) != p.DomainIndexAt(at+total) {
			t.Fatalf("t=%v and t+%v should agree across the cycle boundary", at, total)
		}
	}
}

func TestApplyScriptTransformIdentity(t *testing.T) {
	p := DETRACProfile()
	got, err := ApplyScriptTransform(p, ScriptTransform{})
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatal("identity transform should return the base profile unchanged")
	}
	got, err = ApplyScriptTransform(p, ScriptTransform{Stretch: 1})
	if err != nil || got != p {
		t.Fatal("stretch=1 is the identity")
	}
}

func TestApplyScriptTransformPhase(t *testing.T) {
	p := boundaryProfile()
	// Phase 15 lands 5 s into segment B: the variant opens with B's
	// remaining 15 s and closes with A(10) + B(5).
	v, err := ApplyScriptTransform(p, ScriptTransform{PhaseSec: 15})
	if err != nil {
		t.Fatal(err)
	}
	if v == p || &v.Script[0] == &p.Script[0] {
		t.Fatal("transform must not alias the base profile's script")
	}
	if math.Abs(v.ScriptDuration()-p.ScriptDuration()) > 1e-9 {
		t.Fatalf("phase must preserve total duration: %v vs %v", v.ScriptDuration(), p.ScriptDuration())
	}
	if v.Script[0].DomainIndex != 1 || v.Script[0].Duration != 15 {
		t.Fatalf("phase 15 should open with B's remainder, got %+v", v.Script[0])
	}
	// The variant at time t sees what the base sees at t+15.
	for _, at := range []float64{0, 7, 14.9, 30, 59} {
		if v.DomainIndexAt(at) != p.DomainIndexAt(at+15) {
			t.Fatalf("phase offset broken at t=%v", at)
		}
	}
	// Phases wrap modulo the script duration.
	w, err := ApplyScriptTransform(p, ScriptTransform{PhaseSec: 15 + p.ScriptDuration()})
	if err != nil {
		t.Fatal(err)
	}
	if w.Script[0] != v.Script[0] || len(w.Script) != len(v.Script) {
		t.Fatal("phase should wrap modulo the script duration")
	}
}

func TestApplyScriptTransformStretch(t *testing.T) {
	p := boundaryProfile()
	v, err := ApplyScriptTransform(p, ScriptTransform{Stretch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.ScriptDuration()-2*p.ScriptDuration()) > 1e-9 {
		t.Fatalf("stretch 2 should double the script: %v", v.ScriptDuration())
	}
	if v.DomainIndexAt(25) != p.DomainIndexAt(12.5) {
		t.Fatal("stretched script should play the same sequence at half speed")
	}
	if _, err := ApplyScriptTransform(p, ScriptTransform{Stretch: -1}); err == nil {
		t.Fatal("negative stretch must be rejected")
	}
}

func TestApplyScriptTransformShuffleDeterministic(t *testing.T) {
	p := DETRACProfile()
	a, err := ApplyScriptTransform(p, ScriptTransform{ShuffleSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ApplyScriptTransform(p, ScriptTransform{ShuffleSeed: 9})
	for i := range a.Script {
		if a.Script[i] != b.Script[i] {
			t.Fatal("same shuffle seed must produce the same permutation")
		}
	}
	if math.Abs(a.ScriptDuration()-p.ScriptDuration()) > 1e-9 {
		t.Fatal("shuffle must preserve total duration")
	}
	// Per-domain exposure is preserved (segments only move).
	exposure := func(pr *Profile) map[int]float64 {
		m := map[int]float64{}
		for _, s := range pr.Script {
			m[s.DomainIndex] += s.Duration
		}
		return m
	}
	ea, ep := exposure(a), exposure(p)
	for d, sec := range ep {
		if math.Abs(ea[d]-sec) > 1e-9 {
			t.Fatalf("domain %d exposure changed under shuffle", d)
		}
	}
}

func TestApplyScriptTransformDomainSubset(t *testing.T) {
	p := DETRACProfile() // script uses domains 0,1,2,3
	v, err := ApplyScriptTransform(p, ScriptTransform{Domains: []int{0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range v.Script {
		if s.DomainIndex != 0 && s.DomainIndex != 3 {
			t.Fatalf("subset retained domain %d", s.DomainIndex)
		}
	}
	if len(v.Script) == 0 || len(v.Script) >= len(p.Script) {
		t.Fatalf("subset should drop some segments: %d of %d", len(v.Script), len(p.Script))
	}
	if _, err := ApplyScriptTransform(p, ScriptTransform{Domains: []int{99}}); err == nil {
		t.Fatal("out-of-range domain index must be rejected")
	}
	// A subset that matches no segment is an empty script — rejected.
	q := boundaryProfile() // uses only domains 0 and 1
	if _, err := ApplyScriptTransform(q, ScriptTransform{Domains: []int{3}}); err == nil {
		t.Fatal("empty surviving script must be rejected")
	}
}

func TestTransformSharesWorldData(t *testing.T) {
	p := DETRACProfile()
	v, err := ApplyScriptTransform(p, ScriptTransform{PhaseSec: 100, ShuffleSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Same world: prototypes and domains are shared, so the pretrained
	// student (which never reads the script) is identical for base and
	// variant.
	if &v.Prototypes[0] != &p.Prototypes[0] || &v.Domains[0] != &p.Domains[0] {
		t.Fatal("script transforms must share the base profile's world data")
	}
	if v.Name != p.Name {
		t.Fatal("variants keep the base name (one pretrained-student cache slot per world)")
	}
}

func TestRegisteredProfileInfos(t *testing.T) {
	infos := Profiles()
	if len(infos) < 3 {
		t.Fatalf("expected at least the three stock profiles, got %d", len(infos))
	}
	want := []string{ProfileDETRAC, ProfileKITTI, ProfileWaymo}
	for i, name := range want {
		if infos[i].Name != name || infos[i].Summary == "" {
			t.Fatalf("stock profile %d: got %+v", i, infos[i])
		}
	}
}
