package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"shoggoth/internal/experiments"
)

type rendered string

func (r rendered) Render() string { return string(r) }

// fakeTable mirrors experimentTable's names with runs that only record
// their visit.
func fakeTable(visited *[]string) []experiment {
	var table []experiment
	for _, e := range experimentTable() {
		name := e.name
		table = append(table, experiment{name, func(experiments.Mode) (renderer, error) {
			*visited = append(*visited, name)
			return rendered("<" + name + ">"), nil
		}})
	}
	return table
}

// TestUnknownExperimentIsAnError: a typo in -exp names the valid
// experiments instead of printing nothing and exiting 0.
func TestUnknownExperimentIsAnError(t *testing.T) {
	var visited []string
	var out bytes.Buffer
	err := runExperiments(&out, fakeTable(&visited), "tabel1", experiments.Quick())
	if err == nil {
		t.Fatal("-exp tabel1 was accepted")
	}
	for _, want := range []string{`"tabel1"`, "table1", "tier"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if len(visited) != 0 || out.Len() != 0 {
		t.Errorf("an unknown name still ran %v and printed %q", visited, out.String())
	}
}

// TestAllVisitsEveryExperimentOnceInOrder pins the order `-exp all` prints
// in, and that a single name runs that entry alone.
func TestAllVisitsEveryExperimentOnceInOrder(t *testing.T) {
	order := []string{"table1", "fig4", "table2", "table3", "fig5", "extra", "policy", "router", "scenario", "tier"}
	var visited []string
	var out bytes.Buffer
	if err := runExperiments(&out, fakeTable(&visited), "all", experiments.Quick()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(visited, order) {
		t.Fatalf("-exp all visited %v, want %v", visited, order)
	}
	at := 0
	for _, name := range order {
		i := strings.Index(out.String()[at:], "<"+name+">\n("+name+" took ")
		if i < 0 {
			t.Fatalf("output lacks %s's result after offset %d:\n%s", name, at, out.String())
		}
		at += i
	}

	visited = nil
	if err := runExperiments(&out, fakeTable(&visited), "Fig5", experiments.Quick()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(visited, []string{"fig5"}) {
		t.Fatalf("-exp Fig5 visited %v, want fig5 alone", visited)
	}
}
