// Command shoggoth-bench regenerates every table and figure of the paper's
// evaluation section and prints measured values next to the paper's. It
// takes four flags and writes no file; speed is measured by the repo
// benchmark (BENCHMARK.json, `bash benchmark/run.sh`).
//
// Usage:
//
//	shoggoth-bench                 # all experiments, quick mode (1 cycle)
//	shoggoth-bench -full           # paper-scale mode (2 cycles)
//	shoggoth-bench -exp table3     # one experiment: table1 fig4 table2 table3 fig5 extra policy router scenario
//	shoggoth-bench -seed 7         # run seed
//	shoggoth-bench -workers 2      # concurrent sessions per experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"shoggoth/internal/experiments"
)

type renderer interface{ Render() string }

// experiment is one entry of -exp: a name and the run that produces its
// table or figure.
type experiment struct {
	name string
	run  func(experiments.Mode) (renderer, error)
}

// entry adapts an experiment function's concrete result type.
func entry[R renderer](name string, f func(experiments.Mode) (R, error)) experiment {
	return experiment{name, func(m experiments.Mode) (renderer, error) { return f(m) }}
}

// experimentTable lists the experiments in the order `-exp all` runs them.
// Figure 5 scores Table I's runs, so the two share one Table I result per
// process.
func experimentTable() []experiment {
	var t1 *experiments.Table1Result
	table1 := func(m experiments.Mode) (*experiments.Table1Result, error) {
		if t1 != nil {
			return t1, nil
		}
		var err error
		t1, err = experiments.Table1(m)
		return t1, err
	}
	return []experiment{
		entry("table1", table1),
		entry("fig4", experiments.Figure4),
		entry("table2", experiments.Table2),
		entry("table3", experiments.Table3),
		entry("fig5", func(m experiments.Mode) (*experiments.Figure5Result, error) {
			t, err := table1(m)
			if err != nil {
				return nil, err
			}
			return experiments.Figure5(m, t)
		}),
		entry("extra", experiments.Extra),
		entry("policy", experiments.PolicyAblation),
		entry("router", experiments.RouterAblation),
		entry("scenario", experiments.ScenarioAblation),
	}
}

// names lists table's experiment names in order, for messages.
func names(table []experiment) string {
	ns := make([]string, len(table))
	for i, e := range table {
		ns[i] = e.name
	}
	return strings.Join(ns, ", ")
}

// runExperiments runs the entry of table named want, or every entry in
// order for "all", printing each result and how long it took.
func runExperiments(w io.Writer, table []experiment, want string, mode experiments.Mode) error {
	want = strings.ToLower(want)
	ran := false
	for _, e := range table {
		if want != "all" && want != e.name {
			continue
		}
		ran = true
		start := time.Now()
		res, err := e.run(mode)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w, res.Render())
		fmt.Fprintf(w, "(%s took %.0fs)\n\n", e.name, time.Since(start).Seconds())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want all or one of: %s)", want, names(table))
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoggoth-bench: ")

	full := flag.Bool("full", false, "paper-scale runs (two scenario cycles per run)")
	table := experimentTable()
	exp := flag.String("exp", "all", "experiment: all or one of "+names(table))
	seed := flag.Uint64("seed", 1, "run seed")
	workers := flag.Int("workers", 0, "concurrent sessions per experiment (0 = GOMAXPROCS)")
	flag.Parse()

	mode := experiments.Quick()
	if *full {
		mode = experiments.Full()
	}
	mode.Seed = *seed
	mode.Workers = *workers

	if err := runExperiments(os.Stdout, table, *exp, mode); err != nil {
		log.Fatal(err)
	}
}
