package netsim

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Trace models one direction of the edge↔cloud connection as a
// piecewise-constant function of virtual time: the instantaneous bandwidth
// may change at discrete points (outage windows, fading steps, diurnal
// load), and TransferSeconds integrates it over a transfer. A Link is the
// degenerate constant Trace.
//
// Determinism contract: a Trace is a pure function of virtual time — RateAt
// and NextChange may depend only on t and on construction parameters (seeds
// included), never on call order, wall clock or mutable state. That is what
// keeps simulated runs bit-reproducible: TransferSeconds is called at
// whatever times the event loop reaches, and identical configs must see
// identical networks.
type Trace interface {
	// RateAt returns the instantaneous bandwidth in bits per second at
	// virtual time t. Zero models a full outage (bits stall until the rate
	// recovers); constructors reject traces whose *base* rate is
	// non-positive, so an outage is always an explicit, bounded window.
	RateAt(t float64) float64
	// LatencyAt returns the one-way propagation latency at virtual time t.
	LatencyAt(t float64) float64
	// NextChange returns the earliest time strictly after t at which RateAt
	// may change, or +Inf when the rate is constant from t on. It may be
	// conservative (returning a boundary where the rate happens not to
	// change only splits an integration segment).
	NextChange(t float64) float64
}

// maxTraceSegments bounds the TransferSeconds and SharedMedium.advance
// integration loops so a malformed Trace (NextChange not advancing, or an
// unbounded outage) cannot hang the simulation. A loop that gives up says
// so under -tags shoggothdebug (gaveUp).
const maxTraceSegments = 1 << 20

// TransferSeconds returns the time to deliver a message of the given size
// over a trace, for a transfer starting at virtual time now: the one-way
// latency plus the rate integral across every piecewise-constant segment
// the transfer spans. For a constant trace (Link) it reduces to exactly
// Link.TransferSeconds' latency + bits/rate — bit-identical, which is what
// lets the constant default reproduce the golden results byte for byte.
//
// It is generic so that a caller holding a concrete trace passes it
// without boxing: a Link priced on every upload costs no allocation.
func TransferSeconds[T Trace](tr T, bytes int, now float64) float64 {
	lat := tr.LatencyAt(now)
	remaining := float64(bytes) * 8
	t := now
	for i := 0; i < maxTraceSegments; i++ {
		rate := tr.RateAt(t)
		next := tr.NextChange(t)
		if math.IsInf(next, 1) || (rate > 0 && remaining <= rate*(next-t)) {
			return lat + (t - now) + remaining/rate
		}
		if next <= t {
			break // malformed trace: no forward progress
		}
		if rate > 0 {
			remaining -= rate * (next - t)
		}
		t = next
	}
	// Unreachable for traces built by this package's constructors; a
	// pathological trace prices the remainder as if the transfer never
	// completes rather than stalling the virtual clock.
	gaveUp("TransferSeconds", t, remaining)
	return math.Inf(1)
}

// Link implements Trace as the constant-rate, constant-latency connection.
func (l Link) RateAt(t float64) float64    { return l.BandwidthBps }
func (l Link) LatencyAt(t float64) float64 { return l.LatencySec }
func (l Link) NextChange(t float64) float64 {
	return math.Inf(1)
}

// validateBase rejects link parameters no trace may be built on: a
// non-positive base bandwidth (a dead link must be an explicit outage
// window, never a silently-free transfer) or a negative latency.
func validateBase(kind string, base Link) error {
	if base.BandwidthBps <= 0 {
		return fmt.Errorf("netsim: %s trace: non-positive base bandwidth %g bps", kind, base.BandwidthBps)
	}
	if base.LatencySec < 0 {
		return fmt.Errorf("netsim: %s trace: negative latency %g s", kind, base.LatencySec)
	}
	return nil
}

// Window overrides a StepTrace's base rate during [StartSec, EndSec).
// RateBps may be zero — a full outage — or any lower/higher rate (a
// degraded or boosted interval); it must not be negative.
type Window struct {
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	RateBps  float64 `json:"rate_bps"`
}

// StepTrace is a base link overridden by rate windows — scheduled outages,
// degraded intervals, maintenance slots. With PeriodSec > 0 the window
// pattern repeats every period (windows then live in [0, PeriodSec)).
type StepTrace struct {
	base      Link
	windows   []Window
	periodSec float64
}

// NewStepTrace builds a step trace over non-overlapping, ascending windows.
func NewStepTrace(base Link, windows []Window, periodSec float64) (*StepTrace, error) {
	if err := validateBase("step", base); err != nil {
		return nil, err
	}
	if periodSec < 0 {
		return nil, fmt.Errorf("netsim: step trace: negative period %g s", periodSec)
	}
	prevEnd := math.Inf(-1)
	for i, w := range windows {
		if w.EndSec <= w.StartSec {
			return nil, fmt.Errorf("netsim: step trace: window %d is empty ([%g, %g))", i, w.StartSec, w.EndSec)
		}
		if w.StartSec < prevEnd {
			return nil, fmt.Errorf("netsim: step trace: window %d overlaps or precedes window %d", i, i-1)
		}
		if w.RateBps < 0 {
			return nil, fmt.Errorf("netsim: step trace: window %d has negative rate %g bps", i, w.RateBps)
		}
		if periodSec > 0 && (w.StartSec < 0 || w.EndSec > periodSec) {
			return nil, fmt.Errorf("netsim: step trace: window %d ([%g, %g)) outside the period [0, %g)",
				i, w.StartSec, w.EndSec, periodSec)
		}
		prevEnd = w.EndSec
	}
	return &StepTrace{
		base:      base,
		windows:   append([]Window(nil), windows...),
		periodSec: periodSec,
	}, nil
}

// localTime folds t into the window pattern's time base.
func (s *StepTrace) localTime(t float64) float64 {
	if s.periodSec <= 0 {
		return t
	}
	m := math.Mod(t, s.periodSec)
	if m < 0 {
		m += s.periodSec
	}
	return m
}

func (s *StepTrace) RateAt(t float64) float64 {
	lt := s.localTime(t)
	for _, w := range s.windows {
		if lt >= w.StartSec && lt < w.EndSec {
			return w.RateBps
		}
	}
	return s.base.BandwidthBps
}

func (s *StepTrace) LatencyAt(t float64) float64 { return s.base.LatencySec }

func (s *StepTrace) NextChange(t float64) float64 {
	lt := s.localTime(t)
	next := math.Inf(1)
	for _, w := range s.windows {
		for _, b := range [2]float64{w.StartSec, w.EndSec} {
			if b > lt && b < next {
				next = b
			}
		}
	}
	if math.IsInf(next, 1) {
		if s.periodSec <= 0 || len(s.windows) == 0 {
			return next
		}
		// Wrap to the next period's first boundary (conservative: it may be
		// a no-op change if the first window starts at 0 with the base rate).
		next = s.periodSec + s.windows[0].StartSec
	}
	return t + (next - lt)
}

// LTETrace models an LTE-class cellular connection by resampling the rate
// every StepSec from a seeded stream: segment k's rate is
// base · U(MinFactor, MaxFactor) where U is drawn from an RNG keyed on
// (seed, k). The rate is therefore a pure function of time — any call order
// observes the identical fading pattern.
type LTETrace struct {
	base      Link
	stepSec   float64
	minFactor float64
	maxFactor float64
	seed      uint64
}

// NewLTETrace builds a seeded stochastic trace. Factors must satisfy
// 0 < min <= max, so the rate never hits zero (use a StepTrace for hard
// outages) and transfers always terminate.
func NewLTETrace(base Link, stepSec, minFactor, maxFactor float64, seed uint64) (*LTETrace, error) {
	if err := validateBase("lte", base); err != nil {
		return nil, err
	}
	if stepSec <= 0 {
		return nil, fmt.Errorf("netsim: lte trace: non-positive step %g s", stepSec)
	}
	if minFactor <= 0 || maxFactor < minFactor {
		return nil, fmt.Errorf("netsim: lte trace: factors must satisfy 0 < min <= max (got %g, %g)",
			minFactor, maxFactor)
	}
	return &LTETrace{base: base, stepSec: stepSec, minFactor: minFactor, maxFactor: maxFactor, seed: seed}, nil
}

func (l *LTETrace) segment(t float64) uint64 {
	k := math.Floor(t / l.stepSec)
	if k < 0 {
		return 0
	}
	return uint64(k)
}

func (l *LTETrace) RateAt(t float64) float64 {
	// One throwaway PCG per segment: draws depend only on (seed, segment),
	// never on how many times or in what order the trace was sampled.
	rng := rand.New(rand.NewPCG(l.seed, l.segment(t)+1))
	f := l.minFactor + rng.Float64()*(l.maxFactor-l.minFactor)
	return l.base.BandwidthBps * f
}

func (l *LTETrace) LatencyAt(t float64) float64 { return l.base.LatencySec }

func (l *LTETrace) NextChange(t float64) float64 {
	next := (math.Floor(t/l.stepSec) + 1) * l.stepSec
	if next <= t { // float rounding at a boundary: force progress
		next = t + l.stepSec
	}
	return next
}

// DiurnalTrace models daily load swings: the rate follows a raised cosine
// over PeriodSec — full base rate at t=0 (off-peak), dipping to
// base·(1-Depth) half a period in (peak congestion) — quantised to StepSec
// segments so integration stays piecewise-exact.
type DiurnalTrace struct {
	base      Link
	periodSec float64
	stepSec   float64
	depth     float64
}

// NewDiurnalTrace builds a diurnal trace. Depth must lie in [0, 1) so the
// trough rate stays positive.
func NewDiurnalTrace(base Link, periodSec, stepSec, depth float64) (*DiurnalTrace, error) {
	if err := validateBase("diurnal", base); err != nil {
		return nil, err
	}
	if periodSec <= 0 || stepSec <= 0 {
		return nil, fmt.Errorf("netsim: diurnal trace: non-positive period/step (%g, %g)", periodSec, stepSec)
	}
	if depth < 0 || depth >= 1 {
		return nil, fmt.Errorf("netsim: diurnal trace: depth %g outside [0, 1)", depth)
	}
	return &DiurnalTrace{base: base, periodSec: periodSec, stepSec: stepSec, depth: depth}, nil
}

func (d *DiurnalTrace) RateAt(t float64) float64 {
	// Sample the cosine at the segment start so the rate is constant across
	// each step.
	seg := math.Floor(t/d.stepSec) * d.stepSec
	phase := 2 * math.Pi * seg / d.periodSec
	dip := d.depth * (0.5 - 0.5*math.Cos(phase))
	return d.base.BandwidthBps * (1 - dip)
}

func (d *DiurnalTrace) LatencyAt(t float64) float64 { return d.base.LatencySec }

func (d *DiurnalTrace) NextChange(t float64) float64 {
	next := (math.Floor(t/d.stepSec) + 1) * d.stepSec
	if next <= t {
		next = t + d.stepSec
	}
	return next
}
