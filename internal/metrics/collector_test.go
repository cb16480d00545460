package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"shoggoth/internal/geom"
)

// collectorOracle is the map-backed Collector as it stood before frame times
// moved into a dense slice and windows began scoring runs of dets/gts in
// place, kept verbatim as the reference the Collector is held to bit for bit.
type collectorOracle struct {
	dets []Det
	gts  []GT
	// frame -> stream time, for window bucketing
	frameTime map[int]float64

	winStart float64
	winGT    int
	winDet   int
}

func newCollectorOracle() *collectorOracle {
	return &collectorOracle{frameTime: make(map[int]float64)}
}

func (c *collectorOracle) AddFrame(frame int, t float64, gts []GT, dets []Det) {
	c.frameTime[frame] = t
	c.gts = append(c.gts, gts...)
	c.dets = append(c.dets, dets...)
}

func (c *collectorOracle) Frames() int { return len(c.frameTime) }

func (c *collectorOracle) WindowMAP50At(start, windowSec float64) (map50 float64, ok bool) {
	if start < c.winStart {
		c.winGT, c.winDet = 0, 0
	}
	c.winStart = start
	end := start + windowSec
	for c.winGT < len(c.gts) && c.frameTime[c.gts[c.winGT].Frame] < start {
		c.winGT++
	}
	for c.winDet < len(c.dets) && c.frameTime[c.dets[c.winDet].Frame] < start {
		c.winDet++
	}
	var gts []GT
	for i := c.winGT; i < len(c.gts) && c.frameTime[c.gts[i].Frame] < end; i++ {
		gts = append(gts, c.gts[i])
	}
	if len(gts) == 0 {
		return 0, false
	}
	var dets []Det
	for i := c.winDet; i < len(c.dets) && c.frameTime[c.dets[i].Frame] < end; i++ {
		dets = append(dets, c.dets[i])
	}
	return MAP50(dets, gts), true
}

func (c *collectorOracle) WindowedMAP50(windowSec float64) []WindowScore {
	if windowSec <= 0 || len(c.frameTime) == 0 {
		return nil
	}
	window := func(t float64) int { return int(t / windowSec) }
	detsByW := map[int][]Det{}
	gtsByW := map[int][]GT{}
	for _, d := range c.dets {
		w := window(c.frameTime[d.Frame])
		detsByW[w] = append(detsByW[w], d)
	}
	for _, g := range c.gts {
		w := window(c.frameTime[g.Frame])
		gtsByW[w] = append(gtsByW[w], g)
	}
	var windows []int
	for w := range gtsByW {
		windows = append(windows, w)
	}
	sort.Ints(windows)
	out := make([]WindowScore, 0, len(windows))
	for _, w := range windows {
		out = append(out, WindowScore{
			Start: float64(w) * windowSec,
			MAP:   MAP50(detsByW[w], gtsByW[w]),
		})
	}
	return out
}

// TestCollectorMatchesMapOracle feeds the Collector and the oracle the same
// frames — in stream order, shuffled, with frames recorded twice at different
// times, with detections that name a frame nobody recorded, and with long
// stretches that hold no ground truth — and holds Frames, WindowedMAP50 and
// WindowMAP50At (streaming starts, then a start that jumps back) to the
// oracle bit for bit.
func TestCollectorMatchesMapOracle(t *testing.T) {
	const (
		frames    = 300
		fps       = 10.0
		windowSec = 4.0
	)
	type frame struct {
		idx  int
		t    float64
		gts  []GT
		dets []Det
	}
	for _, order := range []string{"stream", "shuffled", "repeated"} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, 7))
			randBox := func() geom.Box {
				return box(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64(), 0.05+0.2*rng.Float64(), 0.05+0.2*rng.Float64())
			}
			var all []frame
			for f := 0; f < frames; f++ {
				if rng.IntN(10) == 0 {
					continue // a frame the device had no cycles for
				}
				fr := frame{idx: f, t: float64(f) / fps}
				if (f/50)%3 != 1 { // every third 5 s stretch has no ground truth
					for n := rng.IntN(4); n > 0; n-- {
						fr.gts = append(fr.gts, GT{Frame: f, Class: rng.IntN(3), Box: randBox()})
					}
				}
				for n := rng.IntN(6); n > 0; n-- {
					d := Det{Frame: f, Class: rng.IntN(3), Confidence: rng.Float64(), Box: randBox()}
					if len(fr.gts) > 0 && rng.IntN(2) == 0 {
						g := fr.gts[rng.IntN(len(fr.gts))]
						d.Class, d.Box = g.Class, g.Box
					}
					if rng.IntN(40) == 0 {
						d.Frame = frames + rng.IntN(5) // never recorded: reads as time 0
					}
					fr.dets = append(fr.dets, d)
				}
				all = append(all, fr)
			}
			switch order {
			case "shuffled":
				rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			case "repeated":
				for n := 0; n < 20; n++ {
					again := all[rng.IntN(len(all))]
					again.t += 9 * rng.Float64() // the frame's earlier regions move with it
					all = append(all, again)
				}
			}

			got, want := NewCollector(), newCollectorOracle()
			same := func(what string, g, w float64) {
				t.Helper()
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s seed %d: %s = %v (%#x), oracle %v (%#x)", order, seed, what, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
			windowAt := func(start float64) {
				t.Helper()
				gm, gok := got.WindowMAP50At(start, windowSec)
				wm, wok := want.WindowMAP50At(start, windowSec)
				if gok != wok {
					t.Fatalf("%s seed %d: WindowMAP50At(%v) ok=%v, oracle %v", order, seed, start, gok, wok)
				}
				same("WindowMAP50At", gm, wm)
			}
			// Query each window as it closes, the way System.emitWindows does.
			next := 0.0
			for _, fr := range all {
				got.AddFrame(fr.idx, fr.t, fr.gts, fr.dets)
				want.AddFrame(fr.idx, fr.t, fr.gts, fr.dets)
				for order == "stream" && fr.t >= next+windowSec {
					windowAt(next)
					next += windowSec
				}
			}
			if got.Frames() != want.Frames() {
				t.Fatalf("%s seed %d: Frames() = %d, oracle %d", order, seed, got.Frames(), want.Frames())
			}
			for _, start := range []float64{0, 8, 4, 20, 12, 28} { // forward, and back again
				windowAt(start)
			}

			for _, sec := range []float64{windowSec, 1.5, 1000, 0} {
				gw, ww := got.WindowedMAP50(sec), want.WindowedMAP50(sec)
				if len(gw) != len(ww) || (gw == nil) != (ww == nil) {
					t.Fatalf("%s seed %d: WindowedMAP50(%v) returned %d windows (nil %v), oracle %d (nil %v)",
						order, seed, sec, len(gw), gw == nil, len(ww), ww == nil)
				}
				empty := 0
				for i := range ww {
					same("WindowedMAP50 start", gw[i].Start, ww[i].Start)
					same("WindowedMAP50", gw[i].MAP, ww[i].MAP)
					if i > 0 && ww[i].Start-ww[i-1].Start > sec {
						empty++
					}
				}
				if sec == 1.5 && empty == 0 {
					t.Fatalf("%s seed %d: the stream was meant to hold windows without ground truth", order, seed)
				}
			}
		}
	}

	// A collector that recorded frames but no ground truth returns an empty,
	// non-nil series; one that recorded nothing returns nil.
	got, want := NewCollector(), newCollectorOracle()
	if g, w := got.WindowedMAP50(5), want.WindowedMAP50(5); g != nil || w != nil {
		t.Fatalf("empty collector: %v, oracle %v", g, w)
	}
	d := []Det{{Frame: 3, Class: 0, Confidence: 0.5, Box: box(0.5, 0.5, 0.1, 0.1)}}
	got.AddFrame(3, 0.3, nil, d)
	want.AddFrame(3, 0.3, nil, d)
	if g, w := got.WindowedMAP50(5), want.WindowedMAP50(5); g == nil || w == nil || len(g) != 0 || len(w) != 0 {
		t.Fatalf("collector without ground truth: %v, oracle %v", g, w)
	}
	if got.Frames() != 1 || want.Frames() != 1 {
		t.Fatalf("Frames() = %d, oracle %d; want 1 (frame 3 only, not 0…3)", got.Frames(), want.Frames())
	}
}
