// Command shoggoth-bench regenerates every table and figure of the paper's
// evaluation section and prints measured values next to the paper's.
//
// Usage:
//
//	shoggoth-bench                 # all experiments, quick mode (1 cycle)
//	shoggoth-bench -full           # paper-scale mode (2 cycles)
//	shoggoth-bench -exp table3     # one experiment: table1 fig4 table2 table3 fig5 extra policy router scenario tier
//	shoggoth-bench -perf           # compute-core perf mode: refresh BENCH_core.json
//	shoggoth-bench -fleet-smoke 100000 -fleet-min-events-per-sec 5000000
//	                               # CI fleet smoke: one capped events run with a throughput floor
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"shoggoth/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoggoth-bench: ")

	full := flag.Bool("full", false, "paper-scale runs (two scenario cycles per run)")
	exp := flag.String("exp", "all", "experiment: table1, fig4, table2, table3, fig5, extra, policy, router, scenario, tier or all")
	seed := flag.Uint64("seed", 1, "run seed")
	workers := flag.Int("workers", 0, "concurrent sessions per experiment (0 = GOMAXPROCS)")
	perf := flag.Bool("perf", false, "measure the compute-core hot paths (train step, inference) instead of the paper experiments")
	perfOut := flag.String("perf-out", "BENCH_core.json", "perf mode: output file (baseline entries are preserved)")
	perfMinFast := flag.Float64("perf-min-fast-speedup", 0, "perf mode: fail unless the fast tier's train step is at least this many times faster than the frozen baseline record's (0 = no gate; skipped without AVX2+FMA)")
	fleetSmoke := flag.Int("fleet-smoke", 0, "run one capped events-fidelity fleet at this many devices and exit (CI smoke; 0 = off)")
	fleetMinEvents := flag.Float64("fleet-min-events-per-sec", 0, "fleet smoke: fail unless throughput reaches this many events/sec (0 = no gate)")
	fleetSmokeOut := flag.String("fleet-smoke-out", "", "fleet smoke: write the measurement as JSON to this path (empty = don't)")
	flag.Parse()

	if *fleetSmoke > 0 {
		if err := runFleetSmoke(*fleetSmoke, *fleetMinEvents, *fleetSmokeOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *perf {
		if err := runPerf(*perfOut, *perfMinFast); err != nil {
			log.Fatal(err)
		}
		return
	}

	mode := experiments.Quick()
	if *full {
		mode = experiments.Full()
	}
	mode.Seed = *seed
	mode.Workers = *workers

	want := strings.ToLower(*exp)
	run := func(name string) bool { return want == "all" || want == name }

	var t1 *experiments.Table1Result
	if run("table1") || run("fig5") {
		start := time.Now()
		var err error
		t1, err = experiments.Table1(mode)
		if err != nil {
			log.Fatal(err)
		}
		if run("table1") {
			fmt.Println(t1.Render())
			fmt.Printf("(table1 took %.0fs)\n\n", time.Since(start).Seconds())
		}
	}
	if run("fig4") {
		start := time.Now()
		f4, err := experiments.Figure4(mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(f4.Render())
		fmt.Printf("(fig4 took %.0fs)\n\n", time.Since(start).Seconds())
	}
	if run("table2") {
		start := time.Now()
		t2, err := experiments.Table2(mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t2.Render())
		fmt.Printf("(table2 took %.0fs)\n\n", time.Since(start).Seconds())
	}
	if run("table3") {
		start := time.Now()
		t3, err := experiments.Table3(mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t3.Render())
		fmt.Printf("(table3 took %.0fs)\n\n", time.Since(start).Seconds())
	}
	if run("fig5") {
		start := time.Now()
		f5, err := experiments.Figure5(mode, t1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(f5.Render())
		fmt.Printf("(fig5 took %.0fs)\n\n", time.Since(start).Seconds())
	}
	if run("extra") {
		start := time.Now()
		ex, err := experiments.Extra(mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ex.Render())
		fmt.Printf("(extra took %.0fs)\n\n", time.Since(start).Seconds())
	}
	if run("policy") {
		start := time.Now()
		pa, err := experiments.PolicyAblation(mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(pa.Render())
		fmt.Printf("(policy took %.0fs)\n\n", time.Since(start).Seconds())
	}
	if run("router") {
		start := time.Now()
		ra, err := experiments.RouterAblation(mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ra.Render())
		fmt.Printf("(router took %.0fs)\n\n", time.Since(start).Seconds())
	}
	if run("scenario") {
		start := time.Now()
		sa, err := experiments.ScenarioAblation(mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(sa.Render())
		fmt.Printf("(scenario took %.0fs)\n\n", time.Since(start).Seconds())
	}
	if run("tier") {
		start := time.Now()
		ta, err := experiments.TierAblation(mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ta.Render())
		fmt.Printf("(tier took %.0fs)\n\n", time.Since(start).Seconds())
	}
}
