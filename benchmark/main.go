// Command benchmark is the repo's benchmark: four workloads that each stress
// different layers, end-to-end metrics measured with tracing off, and a
// traced pass that attributes the time layer by layer. BENCHMARK.json at
// the repo root declares the workloads and every metric name; README.md
// here says what each measures and how they are expected to interact.
//
//	go run ./benchmark                                   every workload, untraced
//	go run ./benchmark -trace 1                          every workload, traced pass
//	go run ./benchmark -workload fleet_fifo -seed 3      one run, in this process
//	go run ./benchmark -aa                               two sets back to back, compared
//
// A run of one workload prints its metrics and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in-process (default: every workload, each in a fresh child process)")
	seed := fs.Uint64("seed", 1, "workload seed: the only input")
	seconds := fs.Int("seconds", 0, "measuring time per run; one fixed-size pass per 20 s, at least one (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	aa := fs.Bool("aa", false, "with no -workload: run two identical sets back to back and compare them against the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-aa]")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	outDir := filepath.Join(root, "benchmark", "out")

	if *workload != "" {
		rec, err := runWorkload(runConfig{root: root, spec: sp, workload: *workload, seed: *seed,
			seconds: *seconds, traced: *trace == 1, sz: fullSizes, outDir: outDir})
		if err != nil {
			return err
		}
		return printRun(stdout, sp, rec)
	}

	// One run of a workload swings by ±15% on the reference box even after
	// calibration, so an A/A verdict compares medians of three runs of the
	// one seed.
	sets, runs := 1, 1
	if *aa {
		sets, runs = 2, 3
	}
	all := make([][]*record, sets)
	for s := range all {
		for _, name := range sp.workloadNames() {
			for r := 0; r < runs; r++ {
				rec, err := runChild(stdout, outDir, name, *seed, *seconds, *trace)
				if err != nil {
					return err
				}
				all[s] = append(all[s], rec)
			}
		}
	}
	return summarize(stdout, sp, all, *trace == 1)
}

// printRun prints one run for a reader and ends with the driver's line.
func printRun(w io.Writer, sp *spec, rec *record) error {
	fp := rec.Fingerprint
	fmt.Fprintf(w, "workload %s seed %d trace %v: commit %s, %s %s/%s, nproc %d, GOMAXPROCS %d, %s, fast kernels %v, loadavg %q, spin %.1f -> %.1f ns/1k\n",
		rec.Workload, rec.Seed, rec.Traced, fp.GitCommit, fp.GoVersion, fp.GOOS, fp.GOARCH, fp.NumCPU, fp.GOMAXPROCS,
		fp.CPUModel, fp.FastAccelerated, fp.LoadAvgStart, fp.SpinBeforeNs, fp.SpinAfterNs)
	fmt.Fprintf(w, "  raw seconds: %d passes wall %.3f cpu %.3f; %d set-ups, median %.4f; host slowdown", len(rec.WallSec), rec.WallSec, rec.CPUSec, len(rec.SetupSec), median(rec.SetupSec))
	for _, h := range rec.Host {
		fmt.Fprintf(w, " %.3f", h.Slowdown)
	}
	fmt.Fprintln(w)
	defs := sp.EndToEnd
	if rec.Traced {
		defs = sp.PerLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-36s %14.6g %-6s (%s is better", d.Name, rec.Result.Metrics[d.Name].Value, d.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", bound %g", d.Bound)
		}
		if u, ok := rec.Units[d.Name]; ok && u.Batches > 1 {
			line += fmt.Sprintf("; IQR %.6g..%.6g over %d batches, %.3g allocs", u.Q1, u.Q3, u.Batches, u.Allocs)
		}
		fmt.Fprintln(w, line+")")
	}
	if !rec.Traced {
		for _, name := range sortedKeys(rec.WorkloadMetrics) {
			fmt.Fprintf(w, "  %-36s %14.6g        (this workload only; not gated)\n", name, rec.WorkloadMetrics[name])
		}
	}
	fmt.Fprintf(w, "  outputs digest %s (%s)\n", rec.Digest, rec.DigestNote)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !rec.Result.Correct {
		return fmt.Errorf("%s: %d output checks failed", rec.Workload, len(rec.Problems))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runChild runs one workload in a fresh process of this same binary, so
// that cpu_s and peak_rss_mb belong to that workload alone, and reads back
// the record the child wrote.
func runChild(stdout io.Writer, outDir, workload string, seed uint64, seconds, trace int) (*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	if _, err := stdout.Write(out.Bytes()); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	data, err := os.ReadFile(recordPath(outDir, workload, seed, trace == 1))
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// absFloor keeps a near-zero metric from flapping in the A/A comparison: a
// difference below the floor passes whatever its relative size.
var absFloor = map[string]float64{"setup_s": 0.1}

// summarize prints, per workload and metric, the median, quartiles and
// sample count of each set; with two sets it also compares them and fails
// if two medians differ by more than the bound or an exact row differs.
func summarize(w io.Writer, sp *spec, sets [][]*record, traced bool) error {
	defs := sp.EndToEnd
	if traced {
		defs = sp.PerLayer
	}
	var failures []string
	fmt.Fprintf(w, "\n%-14s %-36s %-6s %s\n", "workload", "metric", "unit", "median [q1, q3] n   (per set)")
	for _, name := range sp.workloadNames() {
		for _, d := range defs {
			line := fmt.Sprintf("%-14s %-36s %-6s", name, d.Name, d.Unit)
			var medians []float64
			for _, set := range sets {
				var xs []float64
				for _, rec := range set {
					if rec.Workload == name {
						xs = append(xs, rec.Result.Metrics[d.Name].Value)
					}
				}
				q1, med, q3 := quartiles(xs)
				medians = append(medians, med)
				line += fmt.Sprintf("  %.6g [%.6g, %.6g] %d", med, q1, q3, len(xs))
			}
			// Both sets ran the same code, so a difference beyond the bound in
			// either direction is noise the bound does not cover. The share is
			// of the smaller median, so the verdict does not depend on set order.
			if len(medians) == 2 && d.Bound > 0 {
				diff := math.Abs(medians[1] - medians[0])
				rel := 0.0
				if base := math.Min(math.Abs(medians[0]), math.Abs(medians[1])); base > 0 {
					rel = diff / base
				}
				line += fmt.Sprintf("  differ by %.2f%% (bound %g%%)", 100*rel, 100*d.Bound)
				if rel > d.Bound && diff > absFloor[d.Name] {
					failures = append(failures, fmt.Sprintf("%s %s: the sets differ by %.2f%%, bound %g%%", name, d.Name, 100*rel, 100*d.Bound))
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	if len(sets) == 2 {
		for i, a := range sets[0] {
			b := sets[1][i]
			if a.Digest != b.Digest {
				failures = append(failures, fmt.Sprintf("%s seed %d: outputs differ between the sets", a.Workload, a.Seed))
			}
			for _, name := range sortedKeys(a.Counts) {
				if a.Counts[name] != b.Counts[name] {
					failures = append(failures, fmt.Sprintf("%s seed %d: %s is %v then %v", a.Workload, a.Seed, name, a.Counts[name], b.Counts[name]))
				}
			}
		}
	}
	for _, f := range failures {
		fmt.Fprintln(w, "A/A FAILED:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d A/A comparisons failed", len(failures))
	}
	return nil
}
