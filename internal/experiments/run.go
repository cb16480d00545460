package experiments

import (
	"fmt"
	"io"
	"strings"

	"shoggoth/internal/registry"
)

// Renderer is an experiment's result: its table or figure as text, the
// measurements next to the paper's values.
type Renderer interface{ Render() string }

// Experiment is one registered table or figure; its Value runs it in a
// suite.
type Experiment = registry.Entry[func(*Suite) (Renderer, error)]

// Suite is one Run: the mode every experiment runs under and the results
// they share. Figure 5 scores Table I's runs, so a suite runs Table I at
// most once.
type Suite struct {
	Mode Mode
	t1   *Table1Result
}

// table1 returns the suite's Table I, running it on first use.
func (s *Suite) table1() (*Table1Result, error) {
	var err error
	if s.t1 == nil {
		s.t1, err = Table1(s.Mode)
	}
	return s.t1, err
}

// registered is the experiment registry, in the order "all" runs it.
var registered = registry.New[func(*Suite) (Renderer, error)]("experiments", "experiment")

func init() {
	for _, e := range []Experiment{
		{Name: "table1", Summary: "Table I: up/down bandwidth and mAP@0.5 of the five strategies on three datasets",
			Value: func(s *Suite) (Renderer, error) { return s.table1() }},
		{Name: "fig4", Summary: "Figure 4: average FPS per strategy and Shoggoth's FPS over time",
			Value: inMode(Figure4)},
		{Name: "table2", Summary: "Table II: the adaptive-training ablation (replay placement, freezing, no replay)",
			Value: inMode(Table2)},
		{Name: "table3", Summary: "Table III: uplink and IoU of fixed sampling rates against the adaptive controller",
			Value: inMode(Table3)},
		{Name: "fig5", Summary: "Figure 5: CDF of per-window mAP gain over Edge-Only, scored on table1's runs",
			Value: func(s *Suite) (Renderer, error) {
				t1, err := s.table1()
				if err != nil {
					return nil, err
				}
				return Figure5(t1), nil
			}},
		{Name: "extra", Summary: "ablations beyond the paper: BRN vs BN, reservoir vs FIFO replay, controller signals",
			Value: inMode(Extra)},
		{Name: "policy", Summary: "cloud scheduling ablation: policies × teacher workers on one contended queue",
			Value: inMode(PolicyAblation)},
		{Name: "router", Summary: "cloud routing ablation: routers × replicas with cross-device teacher batching",
			Value: inMode(RouterAblation)},
		{Name: "scenario", Summary: "scenario ablation: strategies × network traces (steady, lossy-uplink, degraded-cell)",
			Value: inMode(ScenarioAblation)},
	} {
		if _, err := registered.Add(e); err != nil {
			panic(err)
		}
	}
}

// inMode adapts an experiment that needs only the suite's mode.
func inMode[R Renderer](f func(Mode) (R, error)) func(*Suite) (Renderer, error) {
	return func(s *Suite) (Renderer, error) { return f(s.Mode) }
}

// Select resolves want, "all" or one experiment name (case-insensitive),
// to the experiments it runs, in registration order.
func Select(want string) ([]Experiment, error) {
	all := registered.Entries()
	if strings.EqualFold(strings.TrimSpace(want), "all") {
		return all, nil
	}
	i, _, err := registered.Lookup(want)
	if err != nil {
		return nil, fmt.Errorf("%w, or all", err)
	}
	return all[i : i+1], nil
}

// Run runs exps in order in one suite under m, printing each result and
// the seconds it took by clock, a wall clock the caller injects.
func Run(w io.Writer, exps []Experiment, m Mode, clock func() float64) error {
	s := &Suite{Mode: m}
	for _, e := range exps {
		start := clock()
		res, err := e.Value(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(w, res.Render())
		fmt.Fprintf(w, "(%s took %.0fs)\n\n", e.Name, clock()-start)
	}
	return nil
}
