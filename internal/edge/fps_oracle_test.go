package edge

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// denseFPS is the FPS tracker FPSTracker replaced, kept as its oracle: one
// sum and one count per whole second of stream time, grown as seconds
// arrive, in any order.
type denseFPS struct {
	sums   []float64
	counts []int32
}

// Record adds one FPS observation at time t.
func (f *denseFPS) Record(t, fps float64) {
	sec := int(t)
	for len(f.sums) <= sec {
		f.sums = append(f.sums, 0)
		f.counts = append(f.counts, 0)
	}
	f.sums[sec] += fps
	f.counts[sec]++
}

// Series returns the per-second mean FPS series.
func (f *denseFPS) Series() []float64 {
	out := make([]float64, len(f.sums))
	for i := range out {
		if f.counts[i] > 0 {
			out[i] = f.sums[i] / float64(f.counts[i])
		}
	}
	return out
}

// Average returns the overall mean FPS.
func (f *denseFPS) Average() float64 {
	var s float64
	var n int
	for i := range f.sums {
		s += f.sums[i]
		n += int(f.counts[i])
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// checkFPS fails unless got's Series and Average, and the Average of
// lean, a tracker that took the same observations after DropSeries, have
// want's bits.
func checkFPS(t *testing.T, name string, got, lean *FPSTracker, want *denseFPS) {
	t.Helper()
	if len(lean.runs) != 0 {
		t.Fatalf("%s: a tracker told to DropSeries holds %d runs", name, len(lean.runs))
	}
	if a, b := lean.Average(), want.Average(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: average %v from the tracker that keeps no runs, %v from the dense tracker", name, a, b)
	}
	gs, ws := got.Series(), want.Series()
	if len(gs) != len(ws) {
		t.Fatalf("%s: series of %d seconds, the dense tracker's of %d", name, len(gs), len(ws))
	}
	for i := range gs {
		if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
			t.Fatalf("%s, second %d: runs give %v, the dense tracker %v", name, i, gs[i], ws[i])
		}
	}
	if a, b := got.Average(), want.Average(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: average %v from the runs, %v from the dense tracker", name, a, b)
	}
}

// TestFPSTrackerMatchesDense: keeping runs of equal seconds, or folding
// the average as seconds close and keeping no runs, changes what the
// telemetry costs, not what it reports. A tracker and the dense one it
// replaced take the same observations and give the same Series and
// Average, bit for bit, and a tracker told to DropSeries gives the same
// Average.
//
// The first generator is Cloud-Only's direct Record: rates that repeat and
// rates that do not, several observations per second or one, with whole
// seconds left unvisited. The second plays devices through Tick and
// TickFrames, the dense tracker taking each frame's rate from frameLoad
// as Tick does, under training and encoding windows begun between spans.
// Its cameras include rates below 1 fps, which leave seconds with no
// frame; its spans start mid-second, in a second an earlier span left
// open, and end exactly on a second boundary, and the test fails unless
// each of those happened.
func TestFPSTrackerMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	pick := func(xs ...float64) float64 { return xs[rng.IntN(len(xs))] }
	for i := 0; i < 300; i++ {
		var got, lean FPSTracker
		lean.DropSeries()
		var want denseFPS
		end := pick(0, 0.5, 3, 40, 400*rng.Float64())
		for tm := rng.Float64(); tm < end; {
			fps := pick(30, 30, 15, 1/(0.3+rng.Float64()), 30*rng.Float64(), 0)
			got.Record(tm, fps)
			lean.Record(tm, fps)
			want.Record(tm, fps)
			switch rng.IntN(20) {
			case 0:
				tm += float64(1 + rng.IntN(5)) // leave whole seconds unvisited
			case 1: // the same instant again
			default:
				tm += rng.Float64() / pick(1, 4, 30)
			}
		}
		checkFPS(t, fmt.Sprintf("Record case %d (to %v s)", i, end), &got, &lean, &want)
	}

	var midSecond, leftOpen, onBoundary, empty int
	for i := 0; i < 300; i++ {
		camera := pick(0.3, 0.7, 10, 25, 29.97, 30)
		dt := 1 / camera
		cfg := DefaultDeviceConfig()
		cfg.MaxFPS = pick(30, camera, 30*rng.Float64())
		d, ld := NewDevice(cfg), NewDevice(cfg)
		ld.fps.DropSeries()
		var want denseFPS
		frames := int(pick(20, 200, 600) * camera)
		second := func(k int) int { return int(float64(k) * dt) }
		for k := 0; k < frames; {
			n := 1 + rng.IntN(int(5*camera)+1)
			switch rng.IntN(3) {
			case 0: // end exactly on a second boundary
				n = secondEnd(k, frames, second(k), dt, camera) - k
			case 1:
				n = rng.IntN(2)
			}
			n = min(n, frames-k)
			if k > 0 && second(k) == second(k-1) {
				midSecond++
				if d.fps.sec == second(k) {
					leftOpen++
				}
			}
			if k+n < frames && n > 0 && second(k+n) != second(k+n-1) {
				onBoundary++
			}
			for j := k; j < k+n; j++ {
				tm := float64(j) * dt
				fps, _ := d.Config.frameLoad(tm, d.trainingUntil, d.encodingUntil)
				want.Record(tm, fps)
			}
			byTick := rng.IntN(4) == 0
			for _, dev := range []*Device{d, ld} {
				if byTick {
					for j := k; j < k+n; j++ {
						dev.Tick(float64(j)*dt, dt)
					}
				} else {
					dev.TickFrames(k, n, dt)
				}
			}
			k += n
			now := float64(k) * dt
			switch rng.IntN(8) {
			case 0:
				until := now + 2*rng.Float64()
				d.BeginEncoding(until)
				ld.BeginEncoding(until)
			case 1:
				until := now + 10*rng.Float64()
				d.BeginTraining(until)
				ld.BeginTraining(until)
			}
		}
		for _, c := range want.counts {
			if c == 0 {
				empty++
			}
		}
		checkFPS(t, fmt.Sprintf("device case %d (%v fps camera)", i, camera), &d.fps, &ld.fps, &want)
	}
	if midSecond == 0 || leftOpen == 0 || onBoundary == 0 || empty == 0 {
		t.Fatalf("spans from mid-second %d, into an open second %d, ending on a boundary %d; seconds with no frame %d: each must be > 0",
			midSecond, leftOpen, onBoundary, empty)
	}
}

// TestFPSTrackerRefusesEarlierSecond: a tracker keeps its seconds in
// order, so an observation into a second before the open one panics,
// naming both seconds.
func TestFPSTrackerRefusesEarlierSecond(t *testing.T) {
	var f FPSTracker
	f.Record(5.5, 30)
	f.Record(5.9, 30) // the open second again
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "second 3,") || !strings.Contains(msg, "second 5:") {
			t.Fatalf("recording into second 3 after second 5 panicked with %q, want both seconds named", msg)
		}
	}()
	f.Record(3.2, 30)
}

// TestSeriesRefusedWithoutRuns: a tracker told to DropSeries cannot give a
// series, so Series panics and says why rather than report a wrong one.
func TestSeriesRefusedWithoutRuns(t *testing.T) {
	var f FPSTracker
	f.DropSeries()
	f.Record(0.5, 30)
	f.Record(2.5, 15)
	if a := f.Average(); a != 22.5 {
		t.Fatalf("average %v, want 22.5", a)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "DropSeries") {
			t.Fatalf("Series on a tracker with no runs panicked with %q, want it to name DropSeries", msg)
		}
	}()
	f.Series()
}

// TestIdleDeviceHoldsOneRun is the telemetry's footprint guard: a device
// with no training or encoding load played through TickFrames for an
// hour, in spans of a minute, holds its closed seconds as one run.
// TestIdleHourAllocatesNothing counts the same play's allocations.
func TestIdleDeviceHoldsOneRun(t *testing.T) {
	const seconds = 3600
	d, frame := NewDevice(DefaultDeviceConfig()), 0
	playIdleMinutes(d, &frame, idleFPS*seconds)
	if len(d.fps.runs) != 1 || d.fps.sec != seconds-1 {
		t.Fatalf("an idle hour holds %d runs over %d seconds, want 1 run over %d: %+v", len(d.fps.runs), d.fps.sec+1, seconds, d.fps.runs)
	}
}

// idleFPS is the camera rate playIdleMinutes plays at.
const idleFPS = 30

// playIdleMinutes plays a device with no training or encoding load from
// *frame to end, a whole number of minutes on: each minute one Tick, then
// TickFrames over the rest of it.
func playIdleMinutes(d *Device, frame *int, end int) {
	const dt = 1.0 / idleFPS
	for ; *frame < end; *frame += 60 * idleFPS {
		d.Tick(float64(*frame)*dt, dt)
		d.TickFrames(*frame+1, 60*idleFPS-1, dt)
	}
}
