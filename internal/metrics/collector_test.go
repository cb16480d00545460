package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"shoggoth/internal/geom"
)

// evalFrame is one evaluated frame as the tests feed it.
type evalFrame struct {
	idx  int
	t    float64
	gts  []GT
	dets []Det
}

// genStream generates frames in stream order, built to stress the scorer:
// frames the device had no cycles for, 5 s stretches without ground truth,
// classes far apart, half the confidences drawn from five values (long runs
// of ties, whose arrival order decides the rank), and detections that land
// exactly on a ground truth — sometimes two on one, racing for it.
func genStream(rng *rand.Rand, frames int, fps float64) []evalFrame {
	classes := []int{0, 7, 1000}
	confs := []float64{0.2, 0.5, 0.5, 0.8, 0.95}
	randBox := func() geom.Box {
		return box(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64(), 0.05+0.2*rng.Float64(), 0.05+0.2*rng.Float64())
	}
	var all []evalFrame
	for f := 0; f < frames; f++ {
		if rng.IntN(10) == 0 {
			continue
		}
		fr := evalFrame{idx: f, t: float64(f) / fps}
		if (f/int(5*fps))%3 != 1 {
			for n := rng.IntN(4); n > 0; n-- {
				fr.gts = append(fr.gts, GT{Frame: f, Class: classes[rng.IntN(3)], Box: randBox()})
			}
		}
		for n := rng.IntN(7); n > 0; n-- {
			d := Det{Frame: f, Class: classes[rng.IntN(3)], Confidence: rng.Float64(), Box: randBox()}
			if rng.IntN(2) == 0 {
				d.Confidence = confs[rng.IntN(len(confs))]
			}
			if len(fr.gts) > 0 && rng.IntN(2) == 0 {
				g := fr.gts[rng.IntN(len(fr.gts))]
				d.Class, d.Box = g.Class, g.Box
			}
			fr.dets = append(fr.dets, d)
		}
		all = append(all, fr)
	}
	return all
}

// flatten returns the frames' boxes in arrival order.
func flatten(all []evalFrame) (dets []Det, gts []GT) {
	for _, fr := range all {
		dets = append(dets, fr.dets...)
		gts = append(gts, fr.gts...)
	}
	return dets, gts
}

// record feeds c one frame the way core.System.collect does.
func record(c *Collector, fr evalFrame) {
	c.BeginFrame(fr.idx, fr.t)
	for _, g := range fr.gts {
		c.AddGT(g)
	}
	for _, d := range fr.dets {
		c.AddDet(d)
	}
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), oracle %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func sameWindows(t *testing.T, what string, got, want []WindowScore) {
	t.Helper()
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%s returned %d windows (nil %v), oracle %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		sameBits(t, what+" start", got[i].Start, want[i].Start)
		sameBits(t, what, got[i].MAP, want[i].MAP)
	}
}

// TestCollectorMatchesMapOracle feeds the Collector and the oracle that keeps
// every box the same frames in stream order — at stream times, and at times
// that now and then go backwards — and holds Frames, MAP50, AverageIoU,
// WindowedMAP50 and WindowMAP50At (streaming starts, then starts that jump
// back) to the oracle bit for bit.
func TestCollectorMatchesMapOracle(t *testing.T) {
	const (
		frames    = 300
		fps       = 10.0
		windowSec = 4.0
	)
	for _, timing := range []string{"stream", "backwards"} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, 7))
			all := genStream(rng, frames, fps)
			if timing == "backwards" {
				for i := range all {
					if rng.IntN(12) == 0 {
						all[i].t = max(0, all[i].t-9*rng.Float64())
					}
				}
			}
			name := timing + " seed " + strconv.FormatUint(seed, 10) + ": "

			got, want := NewCollector(), newCollectorOracle()
			windowAt := func(start float64) {
				t.Helper()
				gm, gok := got.WindowMAP50At(start, windowSec)
				wm, wok := want.WindowMAP50At(start, windowSec)
				if gok != wok {
					t.Fatalf("%sWindowMAP50At(%v) ok=%v, oracle %v", name, start, gok, wok)
				}
				sameBits(t, name+"WindowMAP50At", gm, wm)
			}
			// Query each window as it closes, the way System.emitWindows does.
			// WindowMAP50At takes frames to arrive in nondecreasing time.
			next := 0.0
			for i, fr := range all {
				if i%2 == 0 {
					got.AddFrame(fr.idx, fr.t, fr.gts, fr.dets)
				} else {
					record(got, fr)
				}
				want.AddFrame(fr.idx, fr.t, fr.gts, fr.dets)
				for timing == "stream" && fr.t >= next+windowSec {
					windowAt(next)
					next += windowSec
				}
			}
			if got.Frames() != want.Frames() {
				t.Fatalf("%sFrames() = %d, oracle %d", name, got.Frames(), want.Frames())
			}
			if timing == "stream" {
				for _, start := range []float64{0, 8, 4, 20, 12, 28} { // forward, and back again
					windowAt(start)
				}
			}
			sameBits(t, name+"MAP50", got.MAP50(), want.MAP50())
			sameBits(t, name+"AverageIoU", got.AverageIoU(), want.AverageIoU())

			for _, sec := range []float64{windowSec, 1.5, 1000, 0} {
				ww := want.WindowedMAP50(sec)
				sameWindows(t, name+"WindowedMAP50("+strconv.FormatFloat(sec, 'g', -1, 64)+")", got.WindowedMAP50(sec), ww)
				empty := 0
				for i := 1; i < len(ww); i++ {
					if ww[i].Start-ww[i-1].Start > sec {
						empty++
					}
				}
				if sec == 1.5 && empty == 0 {
					t.Fatalf("%sthe stream was meant to hold windows without ground truth", name)
				}
			}
		}
	}

	// A collector that recorded frames but no ground truth returns an empty,
	// non-nil series; one that recorded nothing returns nil.
	got, want := NewCollector(), newCollectorOracle()
	sameWindows(t, "empty collector", got.WindowedMAP50(5), want.WindowedMAP50(5))
	if got.WindowedMAP50(5) != nil || got.MAP50() != 0 || got.AverageIoU() != 0 {
		t.Fatal("an empty collector must score nil, 0 and 0")
	}
	d := []Det{{Frame: 3, Class: 0, Confidence: 0.5, Box: box(0.5, 0.5, 0.1, 0.1)}}
	got.AddFrame(3, 0.3, nil, d)
	want.AddFrame(3, 0.3, nil, d)
	sameWindows(t, "collector without ground truth", got.WindowedMAP50(5), want.WindowedMAP50(5))
	if g := got.WindowedMAP50(5); g == nil || len(g) != 0 {
		t.Fatalf("collector without ground truth: %v, want empty and non-nil", g)
	}
	if got.Frames() != 1 || want.Frames() != 1 {
		t.Fatalf("Frames() = %d, oracle %d; want 1 (frame 3 only, not 0…3)", got.Frames(), want.Frames())
	}
}

// TestWindowScoreIsIndependentOfTheRest is why a detection's flag can be
// fixed when its frame closes: the score of any window — any start, any
// length, aligned to nothing — equals the oracle's MAP50 over the raw boxes of
// that window's frames alone.
func TestWindowScoreIsIndependentOfTheRest(t *testing.T) {
	const fps = 10.0
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		all := genStream(rng, 400, fps)
		c := NewCollector()
		for _, fr := range all {
			record(c, fr)
		}
		for n := 0; n < 200; n++ {
			start, length := 40*rng.Float64(), 12*rng.Float64()
			var window []evalFrame
			for _, fr := range all {
				if fr.t >= start && fr.t < start+length {
					window = append(window, fr)
				}
			}
			dets, gts := flatten(window)
			got, ok := c.WindowMAP50At(start, length)
			if ok != (len(gts) > 0) {
				t.Fatalf("seed %d: WindowMAP50At(%v, %v) ok=%v with %d ground truths", seed, start, length, ok, len(gts))
			}
			sameBits(t, "WindowMAP50At", got, oracleMAP50(dets, gts))
		}
	}
}

// TestCollectorContractPanics: frames are evaluated once, in stream order,
// and a box belongs inside the frame it names.
func TestCollectorContractPanics(t *testing.T) {
	b := box(0.5, 0.5, 0.1, 0.1)
	cases := []struct {
		name   string
		misuse func(c *Collector)
	}{
		{"negative frame", func(c *Collector) { c.BeginFrame(-1, 0) }},
		{"frame recorded again", func(c *Collector) { c.BeginFrame(3, 0.3); c.BeginFrame(3, 0.9) }},
		{"frame out of stream order", func(c *Collector) { c.BeginFrame(5, 0.5); c.BeginFrame(4, 0.6) }},
		{"detection naming another frame", func(c *Collector) { c.BeginFrame(3, 0.3); c.AddDet(Det{Frame: 4, Box: b}) }},
		{"ground truth naming another frame", func(c *Collector) { c.BeginFrame(3, 0.3); c.AddGT(GT{Frame: 2, Box: b}) }},
		{"box before any frame", func(c *Collector) { c.AddGT(GT{Frame: 0, Box: b}) }},
		{"box after a query scored the frame", func(c *Collector) { c.BeginFrame(3, 0.3); c.MAP50(); c.AddDet(Det{Frame: 3, Box: b}) }},
	}
	if strconv.IntSize > 32 {
		cases = append(cases, struct {
			name   string
			misuse func(c *Collector)
		}{"class wider than a record", func(c *Collector) { c.BeginFrame(0, 0); c.AddDet(Det{Frame: 0, Class: math.MaxInt, Box: b}) }})
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.misuse(NewCollector())
		}()
	}
}

// TestMAPAnyOrder holds the free MAP and AverageIoU to the oracle bit for bit
// over input in frame order (scored in place) and over what a Collector no
// longer takes: a frame's boxes arriving in two separate runs, detections
// naming a frame nobody else names, everything shuffled, and frames
// interleaved box by box. Neither may write to its input.
func TestMAPAnyOrder(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		all := genStream(rng, 120, 10)
		check := func(order string, dets []Det, gts []GT) {
			t.Helper()
			name := order + " seed " + strconv.FormatUint(seed, 10) + ": "
			detsBefore, gtsBefore := slices.Clone(dets), slices.Clone(gts)
			for _, thr := range []float64{0.3, 0.5, 0.75} {
				sameBits(t, name+"MAP", MAP(dets, gts, thr), oracleMAP(dets, gts, thr))
			}
			sameBits(t, name+"MAP50", MAP50(dets, gts), oracleMAP50(dets, gts))
			sameBits(t, name+"MAP without ground truth", MAP(dets, nil, 0.5), oracleMAP(dets, nil, 0.5))
			sameBits(t, name+"AverageIoU", AverageIoU(dets, gts), oracleAverageIoU(dets, gts))
			sameBits(t, name+"AverageIoU without detections", AverageIoU(nil, gts), oracleAverageIoU(nil, gts))
			if !slices.Equal(dets, detsBefore) || !slices.Equal(gts, gtsBefore) {
				t.Fatalf("%sthe input was written to", name)
			}
		}
		dets, gts := flatten(all)
		check("frame order", dets, gts)

		for n := 0; n < 10; n++ {
			again := all[rng.IntN(len(all))]
			dets, gts = append(dets, again.dets...), append(gts, again.gts...)
		}
		for n := 0; n < 10; n++ {
			d := dets[rng.IntN(len(dets))]
			d.Frame = 120 + rng.IntN(5)
			dets = append(dets, d)
		}
		check("repeated and misnamed", dets, gts)

		rng.Shuffle(len(dets), func(i, j int) { dets[i], dets[j] = dets[j], dets[i] })
		rng.Shuffle(len(gts), func(i, j int) { gts[i], gts[j] = gts[j], gts[i] })
		check("shuffled", dets, gts)

		// Every frame's first box, then every frame's second, and so on.
		var iDets []Det
		var iGTs []GT
		for k, more := 0, true; more; k++ {
			more = false
			for _, fr := range all {
				if k < len(fr.dets) {
					iDets, more = append(iDets, fr.dets[k]), true
				}
				if k < len(fr.gts) {
					iGTs, more = append(iGTs, fr.gts[k]), true
				}
			}
		}
		check("interleaved", iDets, iGTs)
	}
}

// TestMatchTieTakesLaterGroundTruth pins the tie rule the flags depend on. The
// first detection overlaps two ground truths by exactly 0.6; `iou >= best`
// gives it the later one, so the second detection, which sits on that later
// one and overlaps the earlier by a third, finds it taken and is a false
// positive: AP 0.5. Had the earlier one been taken, both would be true
// positives and AP 1.
func TestMatchTieTakesLaterGroundTruth(t *testing.T) {
	strip := func(x1, x2 float64) geom.Box { return geom.Box{X1: x1, Y1: 0.25, X2: x2, Y2: 0.75} }
	gts := []GT{
		{Frame: 0, Class: 7, Box: strip(0, 0.5)},
		{Frame: 0, Class: 7, Box: strip(0.25, 0.75)},
	}
	dets := []Det{
		{Frame: 0, Class: 7, Confidence: 0.9, Box: strip(0.125, 0.625)},
		{Frame: 0, Class: 7, Confidence: 0.8, Box: strip(0.25, 0.75)},
	}
	if a, b := geom.IoU(dets[0].Box, gts[0].Box), geom.IoU(dets[0].Box, gts[1].Box); a != b || a != 0.6 {
		t.Fatalf("the fixture is meant to tie at 0.6: %v and %v", a, b)
	}
	c := NewCollector()
	c.AddFrame(0, 0, gts, dets)
	for i, got := range []float64{c.MAP50(), MAP50(dets, gts), oracleMAP50(dets, gts)} {
		if got != 0.5 {
			t.Errorf("%s = %v, want 0.5: the tie goes to the later ground truth", []string{"Collector.MAP50", "MAP50", "the oracle"}[i], got)
		}
	}
	// Best IoU 0.6 for the earlier ground truth, 1 for the later.
	sameBits(t, "AverageIoU", c.AverageIoU(), oracleAverageIoU(dets, gts))
	if got := c.AverageIoU(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("AverageIoU = %v, want 0.8", got)
	}
}

// TestCollectorAllocsBounded: recording a frame allocates nothing of its own
// — a collector's allocations are the O(log n) growth steps of its three
// record slices and its scratch — and a query over a filled collector
// allocates at most its result. A collector that never sees a frame costs
// what it did when it kept boxes.
func TestCollectorAllocsBounded(t *testing.T) {
	all := genStream(rand.New(rand.NewPCG(1, 17)), 3000, 30)
	var c *Collector
	recordAll := func() {
		c = NewCollector()
		for _, fr := range all {
			record(c, fr)
		}
	}
	if n := testing.AllocsPerRun(5, recordAll); n > 120 {
		t.Errorf("recording %d frames allocated %v times; want slice growth only", len(all), n)
	}
	c.WindowedMAP50(10) // the first query sizes the ranking scratch
	if n := testing.AllocsPerRun(5, func() { c.WindowedMAP50(10) }); n > 1 {
		t.Errorf("WindowedMAP50 on a filled collector allocated %v times; want its result only", n)
	}
	if n := testing.AllocsPerRun(5, func() { c.MAP50(); c.AverageIoU(); c.WindowMAP50At(20, 10) }); n != 0 {
		t.Errorf("MAP50, AverageIoU and WindowMAP50At on a filled collector allocated %v times; want 0", n)
	}

	// An events-fidelity device never records a frame: its collector is the
	// struct alone (128 bytes before frames were scored on arrival), queries
	// included.
	if size := unsafe.Sizeof(Collector{}); size > 128 {
		t.Errorf("an empty Collector is %d bytes; want at most 128", size)
	}
	never := func() {
		e := NewCollector()
		e.MAP50()
		e.AverageIoU()
		e.WindowMAP50At(0, 10)
		e.WindowedMAP50(10)
	}
	if n := testing.AllocsPerRun(5, never); n > 1 {
		t.Errorf("a collector that never saw a frame allocated %v times; want 1", n)
	}
}

// fuzzFrames decodes fuzz input into frames in stream order. Boxes sit on a
// 1/16 grid and confidences on eighths, so equal IoUs and equal confidences
// — where the tie rules decide — are the common case, not the rare one.
func fuzzFrames(data []byte) []evalFrame {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	classes := []int{0, 1, 7, 1000}
	gridBox := func() geom.Box {
		at, size := next(), next()
		x, y := float64(at&15)/16, float64(at>>4)/16
		return geom.Box{X1: x, Y1: y, X2: x + float64(1+size&7)/16, Y2: y + float64(1+size>>3&7)/16}
	}
	var all []evalFrame
	idx, t := -1, 0.0
	for len(data) > 0 && len(all) < 64 {
		head := next()
		idx += 1 + int(head&3)
		if step := float64(head >> 2 & 15); head&0x40 != 0 {
			t = max(0, t-step/2) // a time that goes backwards
		} else {
			t += step / 8
		}
		fr := evalFrame{idx: idx, t: t}
		counts := next()
		for n := counts & 3; n > 0; n-- {
			fr.gts = append(fr.gts, GT{Frame: idx, Class: classes[next()&3], Box: gridBox()})
		}
		for n := counts >> 2 & 7; n > 0; n-- {
			kind := next()
			d := Det{Frame: idx, Class: classes[kind&3], Confidence: float64(kind>>2&7) / 8}
			if on := int(kind >> 5); on < len(fr.gts) {
				d.Box = fr.gts[on].Box
			} else {
				d.Box = gridBox()
			}
			fr.dets = append(fr.dets, d)
		}
		all = append(all, fr)
	}
	return all
}

// FuzzCollectorMatchesOracle is the differential target: whatever frames the
// input decodes to, the Collector and the free functions (given the boxes in
// arrival order, and reversed) agree with the oracle bit for bit. The seeds
// are checked in under testdata/fuzz.
func FuzzCollectorMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		all := fuzzFrames(data)
		got, want := NewCollector(), newCollectorOracle()
		for _, fr := range all {
			record(got, fr)
			want.AddFrame(fr.idx, fr.t, fr.gts, fr.dets)
		}
		sameBits(t, "Collector.MAP50", got.MAP50(), want.MAP50())
		sameBits(t, "Collector.AverageIoU", got.AverageIoU(), want.AverageIoU())
		for _, sec := range []float64{1.5, 4} {
			sameWindows(t, "WindowedMAP50", got.WindowedMAP50(sec), want.WindowedMAP50(sec))
		}

		dets, gts := flatten(all)
		for range 2 {
			for _, thr := range []float64{0.25, 0.5} {
				sameBits(t, "MAP", MAP(dets, gts, thr), oracleMAP(dets, gts, thr))
			}
			sameBits(t, "AverageIoU", AverageIoU(dets, gts), oracleAverageIoU(dets, gts))
			slices.Reverse(dets)
			slices.Reverse(gts)
		}
	})
}
