package core

import (
	"fmt"

	"shoggoth/internal/detect"
	"shoggoth/internal/registry"
	"shoggoth/internal/video"
)

// StrategyKind selects one registered strategy. Kinds are assigned in
// registration order; the five stock strategies of Table I register first
// (in the paper's column order) so the package-level constants stay stable.
type StrategyKind int

// The five strategies of Table I.
const (
	EdgeOnly StrategyKind = iota
	CloudOnly
	Prompt
	AMS
	Shoggoth
)

// Strategy is the pluggable behaviour of one evaluated strategy. The shared
// System owns the substrate every strategy runs on — drifting stream,
// teacher, labeler, sampling-rate controller, edge device, network usage and
// metric collection — and dispatches to these hooks where strategies differ.
// Implementations register via Register and need zero edits inside the
// deployment loop.
type Strategy interface {
	// Init wires the strategy to its freshly-built System (the substrate
	// exists; per-strategy state such as trainers is installed here).
	Init(sys *System) error
	// OnFrame handles one camera frame at stream time t (dt = frame period).
	OnFrame(f *video.Frame, t, dt float64)
	// OnCloudBatch fires when the cloud labeler finishes an uploaded sample
	// batch at virtual time done. Implementations route the labels: schedule
	// a download to the edge, or feed a cloud-side trainer. The frames slice
	// — and, at events fidelity, the frames themselves — belong to the
	// upload, which is reused once the hook returns: a hook that keeps them
	// for later copies what it needs (a full-fidelity frame is the
	// renderer's and immutable, so copying the slice is enough).
	OnCloudBatch(frames []*video.Frame, labels [][]detect.TeacherLabel, done float64)
	// OnTrainDue fires when a full training batch of labeled regions has
	// accumulated (System.DepositLabels tracks the threshold).
	OnTrainDue(batch []detect.LabeledRegion, now float64)
}

// BaseStrategy is an embeddable no-op hook set: embed it and override only
// the hooks the strategy needs. Init stores the System in Sys.
type BaseStrategy struct{ Sys *System }

// Init records the system for the embedding strategy.
func (b *BaseStrategy) Init(sys *System) error { b.Sys = sys; return nil }

// OnFrame is a no-op.
func (b *BaseStrategy) OnFrame(f *video.Frame, t, dt float64) {}

// OnCloudBatch is a no-op.
func (b *BaseStrategy) OnCloudBatch(frames []*video.Frame, labels [][]detect.TeacherLabel, done float64) {
}

// OnTrainDue is a no-op.
func (b *BaseStrategy) OnTrainDue(batch []detect.LabeledRegion, now float64) {}

// Traits declare the substrate behaviour the System applies around the
// strategy hooks.
type Traits struct {
	// Student deploys the offline-pretrained student model on the edge.
	Student bool
	// Uploads runs the sample/upload/label loop (OnCloudBatch can fire);
	// configs must then carry positive upload and batch frame counts.
	Uploads bool
	// Adaptive lets the cloud controller drive the sampling rate whenever
	// Config.SampleRate is zero.
	Adaptive bool
}

// Descriptor registers one strategy with the name-keyed registry.
type Descriptor struct {
	// Name is the display name (the Table I column header); it also resolves
	// in ParseStrategy, case-insensitively.
	Name string
	// Aliases are extra ParseStrategy spellings ("edge" for "Edge-Only").
	Aliases []string
	// Summary is a one-line description for help text and reports.
	Summary string
	// Traits select the substrate behaviour around the hooks.
	Traits Traits
	// Preset post-processes the calibrated default Config (optional).
	Preset func(*Config)
	// New builds a fresh instance for one run.
	New func() Strategy
}

// strategies is the strategy registry; a kind is its registration index.
var strategies = registry.New[Descriptor]("strategy", "strategy")

// Register adds a strategy to the registry and returns its assigned kind.
// Names and aliases are case-insensitive and must be unique.
func Register(d Descriptor) (StrategyKind, error) {
	if d.New == nil {
		return 0, fmt.Errorf("core: strategy registration needs a New factory")
	}
	i, err := strategies.Add(registry.Entry[Descriptor]{Name: d.Name, Aliases: d.Aliases, Summary: d.Summary, Value: d})
	return StrategyKind(i), err
}

// MustRegister is Register for package init blocks; it panics on conflicts.
func MustRegister(d Descriptor) StrategyKind {
	kind, err := Register(d)
	if err != nil {
		panic(err)
	}
	return kind
}

// Lookup returns the descriptor registered for a kind.
func Lookup(k StrategyKind) (Descriptor, bool) { return strategies.At(int(k)) }

// ParseStrategy resolves a strategy name or alias, case-insensitively.
func ParseStrategy(name string) (StrategyKind, error) {
	i, _, err := strategies.Lookup(name)
	return StrategyKind(i), err
}

// StrategyKinds returns every registered strategy in registration order (the
// paper's column order for the stock five).
func StrategyKinds() []StrategyKind {
	out := make([]StrategyKind, strategies.Len())
	for i := range out {
		out[i] = StrategyKind(i)
	}
	return out
}

// Strategies returns every registered strategy in registration order.
func Strategies() []registry.Entry[Descriptor] { return strategies.Entries() }

// String implements fmt.Stringer via the registry.
func (k StrategyKind) String() string {
	if d, ok := Lookup(k); ok {
		return d.Name
	}
	return fmt.Sprintf("StrategyKind(%d)", int(k))
}
