//go:build shoggothdebug

package edge

import (
	"fmt"
	"math"
	"slices"
)

// tickReplay holds TickFrames to its promise: a span ends in the state
// that n calls of Tick reach from the same start, bit for bit. It keeps a
// copy of the device from before the span and replays the calls on it.
// The release build compiles it away (check_release.go); CI runs the edge
// and core tests, the matrix's events-fidelity rows and the events-fidelity
// frame-step oracle with -tags shoggothdebug.
type tickReplay struct{ before Device }

func replayTicks(d *Device) tickReplay {
	c := *d
	c.fps.runs = slices.Clone(d.fps.runs)
	return tickReplay{before: c}
}

func (r tickReplay) matches(d *Device, first, n int, dt float64, processed int) {
	want, wantProcessed := &r.before, 0
	for k := first; k < first+n; k++ {
		if want.Tick(float64(k)*dt, dt) {
			wantProcessed++
		}
	}
	if processed != wantProcessed || !sameBits(d.credit, want.credit) || !sameBits(d.usageSum, want.usageSum) ||
		d.usageN != want.usageN || !sameRuns(&d.fps, &want.fps) {
		panic(fmt.Sprintf("edge: TickFrames(%d, %d, %v) ends in another state than %d Tick calls", first, n, dt, n))
	}
}

// scanReplay holds Scan to its promise the same way: the frame it stops at,
// and the sampler state it leaves, are those of the Sample loop it stands
// for.
type scanReplay struct{ before Sampler }

func replayScan(s *Sampler) scanReplay { return scanReplay{before: *s} }

func (r scanReplay) matches(s *Sampler, from, to int, dt, since, wait float64, stop int, accepted bool) {
	want := &r.before
	wantStop, wantAccepted := from, false
	for ; wantStop < to; wantStop++ {
		t := float64(wantStop) * dt
		if wantAccepted = want.Sample(t); wantAccepted || t-since >= wait {
			break
		}
	}
	if stop != wantStop || accepted != wantAccepted || s.started != want.started ||
		!sameBits(s.credit, want.credit) || !sameBits(s.lastT, want.lastT) {
		panic(fmt.Sprintf("edge: Scan(%d, %d, %v, %v, %v) stops at %d (accepted %t), the Sample loop at %d (accepted %t)",
			from, to, dt, since, wait, stop, accepted, wantStop, wantAccepted))
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameRuns reports whether two trackers hold the same runs and the same
// open second, every sum bit for bit.
func sameRuns(a, b *FPSTracker) bool {
	return a.sec == b.sec && a.n == b.n && sameBits(a.sum, b.sum) &&
		slices.EqualFunc(a.runs, b.runs, func(x, y fpsRun) bool {
			return x.count == y.count && x.seconds == y.seconds && sameBits(x.sum, y.sum)
		})
}
