package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
)

// expected/outcomes.json is the cross-commit reference for the simulated
// outcomes: per workload and seed, the head of the output digest and the
// outcome metrics (the `digest` and `workload_metrics` of the untraced
// records of seeds 1 to 50 at the commit that defined the benchmark; label
// round-trip times are host time and are left out). The driver's contract
// wants every end-to-end metric from every workload, never zero and steady
// across seeds, which the paper-facing numbers cannot be: each exists on one
// workload, and the mAP gain runs from 3 to 13 points over those seeds. They
// are deterministic given the seed, though, so they are gated here as an
// output check instead.
//
//go:embed expected/outcomes.json
var outcomesJSON []byte

type expectedOutcome struct {
	Digest  string             `json:"digest"`
	Metrics map[string]float64 `json:"metrics"`
}

// outcomeBounds is how far each simulated outcome may worsen against the
// reference before the run reads as incorrect: the bounds the issue that
// defined the benchmark fixed for them.
var outcomeBounds = []struct {
	name     string
	higher   bool // higher is better
	abs, rel float64
}{
	{name: "fail_share", abs: 0.001},
	{name: "map50_gain_pts", higher: true, abs: 0.5},
	{name: "paper_map50_err_pts", abs: 0.5},
	{name: "uplink_vs_cloud_only", rel: 0.05},
}

// checkOutcomes compares a full-size run's simulated outcomes with the
// reference for its seed. A seed the reference lacks has nothing to be held
// to and passes: the envelope of the reference seeds is not a bound, a fresh
// seed falls outside it every so often, and the workload's own checks
// (positive mean gain, drop share below a half) still apply. It returns the
// failed checks and how the output digest compares (amd64 only: other
// architectures may fuse multiply-adds). A digest that differs is reported,
// not failed: a change that only speeds the simulator up must leave it
// alone, one that changes the model may not.
func checkOutcomes(workload string, seed uint64, digest string, got map[string]float64) (problems []string, digestNote string) {
	var all map[string]map[string]expectedOutcome
	if err := json.Unmarshal(outcomesJSON, &all); err != nil {
		return []string{fmt.Sprintf("expected/outcomes.json: %v", err)}, ""
	}
	ref, known := all[workload][strconv.FormatUint(seed, 10)]
	if !known {
		return nil, "no reference for this seed"
	}
	digestNote = "not compared off amd64"
	if runtime.GOARCH == "amd64" {
		digestNote = "same as expected/outcomes.json"
		if !strings.HasPrefix(digest, ref.Digest) {
			digestNote = "DIFFERS from expected/outcomes.json: the simulated outputs changed"
		}
	}
	for _, b := range outcomeBounds {
		want, found := ref.Metrics[b.name]
		v, measured := got[b.name]
		if !found || !measured {
			continue
		}
		worse := v - want
		if b.higher {
			worse = -worse
		}
		if worse > b.abs+b.rel*math.Abs(want) {
			problems = append(problems, fmt.Sprintf("%s: %s is %.6g, the reference for this seed is %.6g (may worsen by %g + %g%%)",
				workload, b.name, v, want, b.abs, 100*b.rel))
		}
	}
	return problems, digestNote
}
