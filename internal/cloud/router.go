package cloud

import (
	"fmt"

	"shoggoth/internal/registry"
)

// ReplicaState is one teacher replica's load snapshot as a router sees it:
// enough to rank replicas without reaching into Service state. Snapshots are
// handed to Pick in replica-index order.
type ReplicaState struct {
	// Index is the replica's position in the tier (the value Pick returns).
	Index int
	// QueueLen is the replica's occupancy: batches in service plus waiting.
	QueueLen int
	// QueueCap is the replica's admission bound (0 = unbounded).
	QueueCap int
	// FreeInSec is how long until a teacher worker of this replica frees
	// (0 when one is idle right now) — the queue-delay estimate least-loaded
	// minimises.
	FreeInSec float64
	// Warmth counts the batches of the routed batch's video domain this
	// replica has already been sent (0 = cold on that domain).
	Warmth float64
}

// RouteInfo describes one batch at routing time.
type RouteInfo struct {
	// Device is the uploading device's registration id.
	Device string
	// Class is the device's SLO class ("standard" when unset).
	Class string
	// Domain is the video domain id of the batch's first frame, or -1 when
	// unknown — the affinity signal domain-affinity routes on.
	Domain int
	// Frames is the batch size.
	Frames int
	// Seq is the tier-wide admission sequence number (global arrival order).
	Seq int
}

// Router decides which teacher replica serves a batch. Routers are
// registered by name (RegisterRouter) and selected via TierConfig.Router,
// mirroring RegisterPolicy/RegisterStrategy: a new router — including one
// registered from a test — needs zero tier edits.
//
// Implementations must be deterministic (Pick may depend only on its
// arguments and state accumulated from previous Pick calls on the same
// instance; ties must break on the lowest ReplicaState.Index) and
// allocation-free — Pick runs on the //shoggoth:hotpath dispatch path that
// every uploaded batch crosses, so hotalloc flags any make/append in an
// implementation reachable from it. A Router instance is owned by exactly
// one Tier and is always called under the tier lock, so it needs no
// internal locking.
type Router interface {
	// Pick returns the Index of the replica to serve the batch described by
	// r, arriving at virtual time now. replicas is never empty and is
	// ordered by Index. An out-of-range return falls back to replica 0.
	Pick(replicas []ReplicaState, r RouteInfo, now float64) int
}

// LoadBlind is the optional declaration of a Router whose Pick reads
// neither ReplicaState.QueueLen nor ReplicaState.FreeInSec. NewTier asks it
// once: a tier whose router reports true takes no per-replica load snapshot
// on the dispatch path and hands Pick those two fields as zero (Index,
// QueueCap and Warmth are filled as always). A router that does not
// implement it is assumed to read loads.
type LoadBlind interface {
	LoadBlind() bool
}

// Stock router names.
const (
	// RouterRoundRobin cycles through replicas in index order — the frozen
	// default; with one replica it is a pass-through.
	RouterRoundRobin = "round-robin"
	// RouterLeastLoaded picks the replica with the shortest queue-delay
	// estimate (time until a teacher worker frees, then fewest queued
	// batches).
	RouterLeastLoaded = "least-loaded"
	// RouterDomainAffinity routes a batch to the replica warmest on its
	// video domain, falling back to least-loaded for cold domains — the
	// cold-start penalty (TierConfig.ColdStartSec) prices the first batch of
	// a domain on a replica.
	RouterDomainAffinity = "domain-affinity"
)

// routers is the replica router registry; each value builds a fresh
// router.
var routers = registry.New[func() Router]("cloud", "replica router")

// RegisterRouter adds a replica router to the registry. Names are
// case-insensitive and must be unique.
func RegisterRouter(name, summary string, factory func() Router) error {
	if factory == nil {
		return fmt.Errorf("cloud: router registration needs a factory")
	}
	_, err := routers.Add(registry.Entry[func() Router]{Name: name, Summary: summary, Value: factory})
	return err
}

// MustRegisterRouter is RegisterRouter for init blocks; it panics on
// conflicts.
func MustRegisterRouter(name, summary string, factory func() Router) {
	if err := RegisterRouter(name, summary, factory); err != nil {
		panic(err)
	}
}

// NewRouter instantiates a registered router by name (case-insensitive).
// The empty name resolves to RouterRoundRobin, the frozen default. Each call
// returns a fresh instance — routers may carry per-tier state (round-robin's
// cursor, for one).
func NewRouter(name string) (Router, error) {
	if name == "" {
		name = RouterRoundRobin
	}
	_, factory, err := routers.Lookup(name)
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

// ValidateRouter reports whether name resolves to a registered router
// (empty means the default and is always valid).
func ValidateRouter(name string) error {
	if name == "" {
		return nil
	}
	_, _, err := routers.Lookup(name)
	return err
}

// Routers returns every registered router in registration order (the stock
// three first).
func Routers() []registry.Entry[func() Router] { return routers.Entries() }

func init() {
	MustRegisterRouter(RouterRoundRobin,
		"cycle through replicas in index order (the frozen default)",
		func() Router { return &roundRobinRouter{} })
	MustRegisterRouter(RouterLeastLoaded,
		"shortest queue-delay estimate first (soonest-free worker, then fewest queued)",
		func() Router { return leastLoadedRouter{} })
	MustRegisterRouter(RouterDomainAffinity,
		"route to the replica warmest on the batch's video domain (least-loaded when cold)",
		func() Router { return domainAffinityRouter{} })
}

// roundRobinRouter cycles a cursor through the replica indices. With one
// replica every Pick returns 0, which is what keeps a 1-replica tier a
// bit-identical pass-through to the bare Service.
type roundRobinRouter struct {
	next int
}

// LoadBlind reports true: the cursor is all round-robin reads.
func (*roundRobinRouter) LoadBlind() bool { return true }

func (r *roundRobinRouter) Pick(replicas []ReplicaState, _ RouteInfo, _ float64) int {
	i := r.next % len(replicas)
	r.next = i + 1
	return replicas[i].Index
}

// leastLoadedRouter minimises the queue-delay estimate: the replica whose
// teacher worker frees soonest wins; ties break on fewer queued batches,
// then the lowest index.
type leastLoadedRouter struct{}

func (leastLoadedRouter) Pick(replicas []ReplicaState, _ RouteInfo, _ float64) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		if replicas[i].FreeInSec < replicas[best].FreeInSec ||
			(replicas[i].FreeInSec == replicas[best].FreeInSec && replicas[i].QueueLen < replicas[best].QueueLen) {
			best = i
		}
	}
	return replicas[best].Index
}

// domainAffinityRouter routes to the replica with the most accumulated
// warmth on the batch's domain (ties: soonest-free worker, then lowest
// index). A batch of an unknown domain, or a domain no replica has seen,
// falls back to least-loaded — which is also what spreads a fresh tier's
// first batches across replicas.
type domainAffinityRouter struct{}

func (domainAffinityRouter) Pick(replicas []ReplicaState, r RouteInfo, now float64) int {
	if r.Domain >= 0 {
		best := -1
		for i := range replicas {
			if replicas[i].Warmth <= 0 {
				continue
			}
			if best < 0 || replicas[i].Warmth > replicas[best].Warmth ||
				(replicas[i].Warmth == replicas[best].Warmth && replicas[i].FreeInSec < replicas[best].FreeInSec) {
				best = i
			}
		}
		if best >= 0 {
			return replicas[best].Index
		}
	}
	return leastLoadedRouter{}.Pick(replicas, r, now)
}
