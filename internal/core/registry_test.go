package core

import (
	"strings"
	"testing"
)

func TestStockKindsMatchConstants(t *testing.T) {
	want := map[StrategyKind]string{
		EdgeOnly: "Edge-Only", CloudOnly: "Cloud-Only", Prompt: "Prompt",
		AMS: "AMS", Shoggoth: "Shoggoth",
	}
	for kind, name := range want {
		d, ok := Lookup(kind)
		if !ok || d.Name != name {
			t.Fatalf("kind %d: got %q (ok=%v), want %q", kind, d.Name, ok, name)
		}
	}
	kinds := StrategyKinds()
	if len(kinds) < 5 {
		t.Fatalf("registry lost stock strategies: %v", kinds)
	}
	for i, k := range kinds {
		if int(k) != i {
			t.Fatalf("kinds must be dense registration indices: %v", kinds)
		}
	}
}

func TestRegistryParseRoundTrips(t *testing.T) {
	entries := Strategies()
	for _, k := range StrategyKinds() {
		d, ok := Lookup(k)
		if !ok {
			t.Fatalf("Lookup(%d) failed for a listed kind", k)
		}
		if e := entries[k]; e.Name != d.Name || e.Summary == "" || e.Summary != d.Summary {
			t.Fatalf("kind %d lists as %q %q; want %q with a summary", k, e.Name, e.Summary, d.Name)
		}
		for _, name := range append([]string{d.Name, strings.ToUpper(d.Name)}, d.Aliases...) {
			got, err := ParseStrategy(name)
			if err != nil || got != k {
				t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
		if k.String() != d.Name {
			t.Fatalf("String mismatch: %q vs %q", k.String(), d.Name)
		}
	}
	if _, err := ParseStrategy("no-such-strategy"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestParseAllNamesAndAliases(t *testing.T) {
	cases := map[string]StrategyKind{
		"edge-only": EdgeOnly, "EdgeOnly": EdgeOnly, "edge": EdgeOnly,
		"cloud-only": CloudOnly, "CLOUD": CloudOnly,
		"prompt": Prompt, "ams": AMS, "Shoggoth": Shoggoth,
	}
	for name, want := range cases {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestRegisterRejectsConflictsAndBlanks(t *testing.T) {
	if _, err := Register(Descriptor{Name: "Shoggoth", New: func() Strategy { return &edgeOnlyStrategy{} }}); err == nil {
		t.Fatal("duplicate name must be rejected")
	}
	if _, err := Register(Descriptor{Name: "Fresh-Name", Aliases: []string{"edge"}, New: func() Strategy { return &edgeOnlyStrategy{} }}); err == nil {
		t.Fatal("duplicate alias must be rejected")
	}
	if _, err := Register(Descriptor{New: func() Strategy { return &edgeOnlyStrategy{} }}); err == nil {
		t.Fatal("blank name must be rejected")
	}
	if _, err := Register(Descriptor{Name: "No-Factory"}); err == nil {
		t.Fatal("nil factory must be rejected")
	}
}

func TestUnregisteredKindFailsValidation(t *testing.T) {
	cfg := testConfig(Shoggoth, 10)
	cfg.Kind = StrategyKind(1 << 20)
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("unregistered kind must fail validation")
	}
	if s := cfg.Kind.String(); !strings.Contains(s, "StrategyKind") {
		t.Fatalf("unknown kind should still render: %q", s)
	}
}
