package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"shoggoth/internal/metrics"
)

// metricDef is one metric declared in BENCHMARK.json. Bound is the share of
// the reference median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the single declaration of the benchmark's
// workloads and metric names. The program emits exactly these names and
// refuses to report one the file does not declare.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json and go.mod, so the benchmark runs from the checkout root
// (the driver), from benchmark/ (go test) or from anywhere below.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json + go.mod above the working directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				return nil, fmt.Errorf("BENCHMARK.json: bad or duplicate metric name %q", m.Name)
			}
			seen[m.Name] = true
			if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
				return nil, fmt.Errorf("BENCHMARK.json: metric %q needs a unit and a direction", m.Name)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return nil, fmt.Errorf("BENCHMARK.json: end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
		}
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// metricValue is one reported number in the driver's result format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one declared metric list. set refuses
// undeclared names; missing lists declared names never set.
type metricSet struct {
	defs   map[string]metricDef
	order  []string
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, values: map[string]float64{}}
	for _, d := range defs {
		m.defs[d.Name] = d
		m.order = append(m.order, d.Name)
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in BENCHMARK.json", name))
	}
	m.values[name] = v
}

func (m *metricSet) missing() []string {
	var out []string
	for _, name := range m.order {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}

func (m *metricSet) result() map[string]metricValue {
	out := make(map[string]metricValue, len(m.values))
	for name, v := range m.values {
		out[name] = metricValue{Value: v, Unit: m.defs[name].Unit}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs (a
// single sample is all three; an empty slice reads 0).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return metrics.Quantile(xs, 0.25), metrics.Quantile(xs, 0.5), metrics.Quantile(xs, 0.75)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}
