package netsim

import (
	"math"
	"strings"
	"testing"

	"shoggoth/internal/sim"
)

// stuckTrace breaks the Trace contract: NextChange returns t itself, so
// an integration over it never moves past its start.
type stuckTrace struct{}

func (stuckTrace) RateAt(float64) float64       { return 1e3 }
func (stuckTrace) LatencyAt(float64) float64    { return 0 }
func (stuckTrace) NextChange(t float64) float64 { return t }

// panicOf runs f and returns what it panicked with, or "" when it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(string)
		}
	}()
	f()
	return ""
}

// TestStuckTraceGivesUp holds both integration loops to what they do on a
// trace that does not advance. A release build keeps the fallbacks:
// TransferSeconds prices the transfer at +Inf, and SharedMedium.advance
// moves its clock to the target with the transfer still in flight. A
// shoggothdebug build panics instead, naming the loop, the instant it
// stopped at and the bits left.
func TestStuckTraceGivesUp(t *testing.T) {
	// 1e4 bytes: a rate of 1e3 bps would take 80 s, so the transfer
	// outlasts its first segment and the loop must look for the next.
	var priced float64
	msg := panicOf(func() { priced = TransferSeconds(stuckTrace{}, 10_000, 3) })
	checkGaveUp(t, msg, "TransferSeconds gives up at t=3 with 80000 bits left")
	if !debugChecks && !math.IsInf(priced, 1) {
		t.Fatalf("TransferSeconds over a stuck trace = %v, want +Inf", priced)
	}

	m := NewSharedMedium(stuckTrace{}, sim.NewScheduler())
	m.Join(10_000, 2, func(float64) {})
	msg = panicOf(func() { m.advance(5) })
	checkGaveUp(t, msg, "SharedMedium.advance gives up at t=2 with 80000 bits left")
	if !debugChecks && (m.now != 5 || m.Active() != 1) {
		t.Fatalf("SharedMedium.advance over a stuck trace: clock %v with %d transfers, want 5 with 1", m.now, m.Active())
	}
}

// checkGaveUp fails unless a shoggothdebug build panicked with a message
// that starts "netsim: " + want, and a release build did not panic.
func checkGaveUp(t *testing.T, msg, want string) {
	t.Helper()
	switch {
	case debugChecks && !strings.HasPrefix(msg, "netsim: "+want):
		t.Fatalf("panic %q, want it to start %q", msg, "netsim: "+want)
	case !debugChecks && msg != "":
		t.Fatalf("a release build panicked: %s", msg)
	}
}
