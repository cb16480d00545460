package registry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// fill returns a table of factories, the shape most registries hold, each
// building its own name.
func fill(t *testing.T, names ...string) *Table[func() string] {
	t.Helper()
	tb := New[func() string]("test", "thing")
	for _, n := range names {
		if _, err := tb.Add(Entry[func() string]{Name: n, Summary: "the " + n, Value: func() string { return n }}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"entries keep registration order", func(t *testing.T) {
			tb := fill(t, "zeta", "Alpha", "mid")
			var got []string
			for i, e := range tb.Entries() {
				got = append(got, e.Name+"="+e.Value())
				if v, ok := tb.At(i); !ok || v() != e.Value() {
					t.Fatalf("At(%d) disagrees with Entries", i)
				}
			}
			if want := []string{"zeta=zeta", "Alpha=Alpha", "mid=mid"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("entries %v, want %v", got, want)
			}
			if _, ok := tb.At(3); ok {
				t.Fatal("At past the end must miss")
			}
		}},
		{"lookup ignores case and trims spaces", func(t *testing.T) {
			tb := fill(t, "zeta", "Alpha")
			if _, err := tb.Add(Entry[func() string]{Name: "Omega", Aliases: []string{"last"}, Value: func() string { return "Omega" }}); err != nil {
				t.Fatal(err)
			}
			for name, want := range map[string]int{"ALPHA": 1, "  zeta\t": 0, "alpha": 1, " LAST ": 2, "omega": 2} {
				i, v, err := tb.Lookup(name)
				if err != nil || i != want || v() != tb.Entries()[want].Name {
					t.Fatalf("Lookup(%q) = %d, %v; want %d", name, i, err, want)
				}
			}
		}},
		{"duplicates are rejected against names and aliases", func(t *testing.T) {
			tb := fill(t, "alpha")
			if _, err := tb.Add(Entry[func() string]{Name: "beta", Aliases: []string{"b"}}); err != nil {
				t.Fatal(err)
			}
			for _, e := range []Entry[func() string]{
				{Name: "ALPHA"}, // name vs name
				{Name: "B"},     // name vs alias
				{Name: "gamma", Aliases: []string{"Alpha"}}, // alias vs name
				{Name: "delta", Aliases: []string{"b"}},     // alias vs alias
				{Name: "eps", Aliases: []string{"EPS"}},     // within one entry
			} {
				if _, err := tb.Add(e); err == nil {
					t.Fatalf("%+v registered over a taken name", e)
				}
			}
			if tb.Len() != 2 {
				t.Fatalf("rejected entries changed the table: %d entries", tb.Len())
			}
		}},
		{"blank and padded names are rejected", func(t *testing.T) {
			tb := fill(t)
			for _, e := range []Entry[func() string]{
				{Name: ""}, {Name: " x"}, {Name: "x\t"}, {Name: "x", Aliases: []string{""}}, {Name: "x", Aliases: []string{" y "}},
			} {
				if _, err := tb.Add(e); err == nil {
					t.Fatalf("%q %q registered", e.Name, e.Aliases)
				}
			}
		}},
		{"unknown names list the sorted names", func(t *testing.T) {
			tb := fill(t, "zeta", "Alpha", "mid")
			_, _, err := tb.Lookup("nope")
			if want := `test: unknown thing "nope" (want alpha, mid, zeta)`; err == nil || err.Error() != want {
				t.Fatalf("error %v, want %s", err, want)
			}
		}},
		{"a factory may register into its own table", func(t *testing.T) {
			tb := fill(t)
			maker := func() string {
				if _, err := tb.Add(Entry[func() string]{Name: "made", Value: func() string { return "made" }}); err != nil {
					t.Error(err)
				}
				return "maker"
			}
			if _, err := tb.Add(Entry[func() string]{Name: "maker", Value: maker}); err != nil {
				t.Fatal(err)
			}
			_, factory, err := tb.Lookup("maker")
			if err != nil || factory() != "maker" {
				t.Fatal(err)
			}
			if _, v, err := tb.Lookup("made"); err != nil || v() != "made" {
				t.Fatalf("the factory's registration is missing: %v", err)
			}
		}},
		{"concurrent adds and lookups", func(t *testing.T) {
			tb := fill(t, "seed")
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if _, err := tb.Add(Entry[func() string]{Name: fmt.Sprintf("w%d-%d", w, i)}); err != nil {
							t.Error(err)
						}
						if _, _, err := tb.Lookup("SEED"); err != nil {
							t.Error(err)
						}
						tb.At(i)
						tb.Entries()
					}
				}(w)
			}
			wg.Wait()
			if tb.Len() != 201 {
				t.Fatalf("%d entries, want 201", tb.Len())
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
