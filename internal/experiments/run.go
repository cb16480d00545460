package experiments

import (
	"fmt"
	"io"
	"strings"

	"shoggoth/internal/core"
	"shoggoth/internal/registry"
	"shoggoth/internal/video"
)

// Renderer is an experiment's result: its table or figure as text, the
// measurements next to the paper's values.
type Renderer interface{ Render() string }

// Experiment is one registered table or figure; its Value runs it in a
// suite.
type Experiment = registry.Entry[func(*Suite) (Renderer, error)]

// Suite is one Run: the mode every experiment runs under and the runs they
// share. Table I, Figure 4 and Figure 5 all read the five paper strategies'
// runs of a profile, so a suite runs those of each profile at most once.
type Suite struct {
	Mode Mode
	runs map[string][]*core.Results // profile name → its paperKinds runs, in that order
}

// paperRuns returns the five paper-strategy runs of each profile, in
// paperKinds order, running the profiles the suite has not run yet in one
// Fleet call.
func (s *Suite) paperRuns(profiles ...*video.Profile) ([][]*core.Results, error) {
	var cfgs []core.Config
	var todo []string
	for _, p := range profiles {
		if _, done := s.runs[p.Name]; done {
			continue
		}
		todo = append(todo, p.Name)
		for _, kind := range paperKinds() {
			cfgs = append(cfgs, configFor(kind, p, s.Mode))
		}
	}
	if len(todo) > 0 {
		results, err := runAll(s.Mode, cfgs)
		if err != nil {
			return nil, err
		}
		if s.runs == nil {
			s.runs = map[string][]*core.Results{}
		}
		k := len(paperKinds())
		for i, name := range todo {
			s.runs[name] = results[i*k : (i+1)*k]
		}
	}
	out := make([][]*core.Results, len(profiles))
	for i, p := range profiles {
		out[i] = s.runs[p.Name]
	}
	return out, nil
}

// registered is the experiment registry, in the order "all" runs it.
var registered = registry.New[func(*Suite) (Renderer, error)]("experiments", "experiment")

func init() {
	for _, e := range []Experiment{
		{Name: "table1", Summary: "Table I: up/down bandwidth and mAP@0.5 of the five strategies on three datasets",
			Value: inSuite(Table1)},
		{Name: "fig4", Summary: "Figure 4: average FPS per strategy and Shoggoth's FPS over time",
			Value: inSuite(Figure4)},
		{Name: "table2", Summary: "Table II: the adaptive-training ablation (replay placement, freezing, no replay)",
			Value: inMode(Table2)},
		{Name: "table3", Summary: "Table III: uplink and IoU of fixed sampling rates against the adaptive controller",
			Value: inMode(Table3)},
		{Name: "fig5", Summary: "Figure 5: CDF of per-window mAP gain over Edge-Only, scored on table1's runs",
			Value: inSuite(Figure5)},
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

// inSuite adapts an experiment that reads the suite's shared runs.
func inSuite[R Renderer](f func(*Suite) (R, error)) func(*Suite) (Renderer, error) {
	return func(s *Suite) (Renderer, error) { return f(s) }
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
