package cloud

import (
	"fmt"

	"shoggoth/internal/registry"
)

// Pending is one waiting batch as a scheduling policy sees it: enough to
// rank batches without reaching into engine state. The engine only offers
// policies the head-of-line batch of each device — within one device,
// batches always serve in arrival order, because the labeler's φ continuity
// compares consecutive sampled frames.
type Pending struct {
	// Device is the registered device id the batch came from.
	Device string
	// Arrival is the virtual time the batch entered the queue.
	Arrival float64
	// Seq is the service-wide admission sequence number: the global arrival
	// order, and the deterministic tie-break of every stock policy.
	Seq int
	// Frames is the batch size (teacher service time is proportional).
	Frames int
	// Phi is the device's most recently observed mean label-change loss —
	// the drift signal φ-priority ranks by (0 until a first batch labels).
	Phi float64
	// ServedSec is the teacher busy time already spent on this device.
	ServedSec float64
	// Weight is the device's fair-queueing weight (default 1).
	Weight float64
}

// Policy decides the service order of a labeling engine's queue. Policies
// are registered by name (RegisterPolicy) and selected via
// ServiceConfig.Policy, mirroring the strategy registry of internal/core: a
// new policy — including one registered from a test — needs zero engine
// edits.
//
// Implementations must be deterministic: Next may depend only on its
// arguments, and ties must break on Pending.Seq so identical runs replay
// identically.
type Policy interface {
	// Immediate reports that service order equals arrival order. The engine
	// then assigns every batch to a worker at admission time (the FIFO fast
	// path — synchronous, and bit-identical to the pre-engine service), and
	// Next is only consulted by tests. Reordering policies return false and
	// are driven through the deferred dispatch path instead.
	Immediate() bool
	// Next returns the index into eligible of the batch to serve when a
	// worker frees at virtual time now. eligible is never empty and holds at
	// most one batch per device (its head-of-line batch), ordered by Seq.
	Next(eligible []Pending, now float64) int
}

// Stock policy names.
const (
	// PolicyFIFO serves batches in arrival order — the frozen default.
	PolicyFIFO = "fifo"
	// PolicyPhiPriority serves the device with the highest last observed
	// mean φ first: the most-drifted device gets labels (and therefore a
	// rate command and training data) soonest.
	PolicyPhiPriority = "phi-priority"
	// PolicyWFQ approximates weighted fair queueing: the device with the
	// least attained teacher service per unit weight goes first.
	PolicyWFQ = "wfq"
)

// policies is the scheduling policy registry; each value builds a fresh
// policy.
var policies = registry.New[func() Policy]("cloud", "scheduling policy")

// RegisterPolicy adds a scheduling policy to the registry. Names are
// case-insensitive and must be unique.
func RegisterPolicy(name, summary string, factory func() Policy) error {
	if factory == nil {
		return fmt.Errorf("cloud: policy registration needs a factory")
	}
	_, err := policies.Add(registry.Entry[func() Policy]{Name: name, Summary: summary, Value: factory})
	return err
}

// MustRegisterPolicy is RegisterPolicy for init blocks; it panics on
// conflicts.
func MustRegisterPolicy(name, summary string, factory func() Policy) {
	if err := RegisterPolicy(name, summary, factory); err != nil {
		panic(err)
	}
}

// NewPolicy instantiates a registered policy by name (case-insensitive).
// The empty name resolves to PolicyFIFO, the frozen default.
func NewPolicy(name string) (Policy, error) {
	if name == "" {
		name = PolicyFIFO
	}
	_, factory, err := policies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

// ValidatePolicy reports whether name resolves to a registered policy
// (empty means the default and is always valid).
func ValidatePolicy(name string) error {
	if name == "" {
		return nil
	}
	_, _, err := policies.Lookup(name)
	return err
}

// Policies returns every registered policy in registration order (the
// stock three first).
func Policies() []registry.Entry[func() Policy] { return policies.Entries() }

func init() {
	MustRegisterPolicy(PolicyFIFO,
		"serve batches in arrival order (the frozen default)",
		func() Policy { return fifoPolicy{} })
	MustRegisterPolicy(PolicyPhiPriority,
		"label the most-drifted device (highest last mean φ) first",
		func() Policy { return phiPriorityPolicy{} })
	MustRegisterPolicy(PolicyWFQ,
		"weighted fair queueing: least attained teacher service per weight first",
		func() Policy { return wfqPolicy{} })
}

// fifoPolicy serves in global arrival order. It is the only stock policy
// with Immediate()==true, which is what keeps the default configuration
// bit-identical to the pre-engine cloud.
type fifoPolicy struct{}

func (fifoPolicy) Immediate() bool { return true }

func (fifoPolicy) Next(eligible []Pending, now float64) int {
	best := 0
	for i := 1; i < len(eligible); i++ {
		if eligible[i].Seq < eligible[best].Seq {
			best = i
		}
	}
	return best
}

// phiPriorityPolicy ranks devices by drift: the highest last observed mean
// φ is served first, ties broken by arrival sequence.
type phiPriorityPolicy struct{}

func (phiPriorityPolicy) Immediate() bool { return false }

func (phiPriorityPolicy) Next(eligible []Pending, now float64) int {
	best := 0
	for i := 1; i < len(eligible); i++ {
		if eligible[i].Phi > eligible[best].Phi ||
			(eligible[i].Phi == eligible[best].Phi && eligible[i].Seq < eligible[best].Seq) {
			best = i
		}
	}
	return best
}

// wfqPolicy approximates weighted fair queueing by least attained service:
// the device with the smallest ServedSec/Weight goes first, so under
// sustained backlog every device's teacher share converges to its weight.
// Ties break by arrival sequence.
type wfqPolicy struct{}

func (wfqPolicy) Immediate() bool { return false }

func (wfqPolicy) Next(eligible []Pending, now float64) int {
	best := 0
	bestKey := wfqKey(eligible[0])
	for i := 1; i < len(eligible); i++ {
		if k := wfqKey(eligible[i]); k < bestKey ||
			(k == bestKey && eligible[i].Seq < eligible[best].Seq) {
			best, bestKey = i, k
		}
	}
	return best
}

func wfqKey(p Pending) float64 {
	w := p.Weight
	if w <= 0 {
		w = 1
	}
	return p.ServedSec / w
}
