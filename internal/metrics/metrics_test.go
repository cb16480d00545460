package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"shoggoth/internal/geom"
)

func box(x, y, w, h float64) geom.Box { return geom.FromCenter(x, y, w, h) }

func TestMAPPerfectDetector(t *testing.T) {
	var dets []Det
	var gts []GT
	for f := 0; f < 5; f++ {
		for k := 0; k < 3; k++ {
			b := box(0.2+0.2*float64(k), 0.5, 0.1, 0.1)
			gts = append(gts, GT{Frame: f, Class: k % 2, Box: b})
			dets = append(dets, Det{Frame: f, Class: k % 2, Confidence: 0.9, Box: b})
		}
	}
	if m := MAP50(dets, gts); math.Abs(m-1) > 1e-9 {
		t.Fatalf("perfect detector should have mAP 1, got %v", m)
	}
}

func TestMAPNoDetections(t *testing.T) {
	gts := []GT{{Frame: 0, Class: 0, Box: box(0.5, 0.5, 0.1, 0.1)}}
	if m := MAP50(nil, gts); m != 0 {
		t.Fatalf("no detections should give mAP 0, got %v", m)
	}
}

func TestMAPNoGroundTruth(t *testing.T) {
	dets := []Det{{Frame: 0, Class: 0, Confidence: 0.9, Box: box(0.5, 0.5, 0.1, 0.1)}}
	if m := MAP50(dets, nil); m != 0 {
		t.Fatalf("no ground truth should give mAP 0, got %v", m)
	}
}

func TestMAPWrongClassDoesNotMatch(t *testing.T) {
	b := box(0.5, 0.5, 0.1, 0.1)
	gts := []GT{{Frame: 0, Class: 0, Box: b}}
	dets := []Det{{Frame: 0, Class: 1, Confidence: 0.9, Box: b}}
	if m := MAP50(dets, gts); m != 0 {
		t.Fatalf("wrong-class detection must not match, got %v", m)
	}
}

func TestMAPLowIoUDoesNotMatch(t *testing.T) {
	gts := []GT{{Frame: 0, Class: 0, Box: box(0.3, 0.3, 0.1, 0.1)}}
	dets := []Det{{Frame: 0, Class: 0, Confidence: 0.9, Box: box(0.7, 0.7, 0.1, 0.1)}}
	if m := MAP50(dets, gts); m != 0 {
		t.Fatalf("far detection must not match, got %v", m)
	}
}

func TestMAPDuplicateDetectionsPenalised(t *testing.T) {
	b := box(0.5, 0.5, 0.2, 0.2)
	gts := []GT{{Frame: 0, Class: 0, Box: b}}
	dets := []Det{
		{Frame: 0, Class: 0, Confidence: 0.9, Box: b},
		{Frame: 0, Class: 0, Confidence: 0.8, Box: b}, // duplicate -> FP
	}
	m := MAP50(dets, gts)
	if math.Abs(m-1) > 1e-9 {
		// AP should still be 1 here: the TP comes first in confidence order,
		// recall reaches 1 at precision 1.
		t.Fatalf("AP with trailing duplicate should be 1, got %v", m)
	}
	// A leading unmatched false positive halves precision at full recall.
	dets[1] = Det{Frame: 0, Class: 0, Confidence: 0.95, Box: box(0.05, 0.05, 0.05, 0.05)}
	m = MAP50(dets, gts)
	if math.Abs(m-0.5) > 1e-9 {
		t.Fatalf("AP with leading FP should be 0.5, got %v", m)
	}
}

func TestMAPHalfMissed(t *testing.T) {
	b1, b2 := box(0.3, 0.3, 0.1, 0.1), box(0.7, 0.7, 0.1, 0.1)
	gts := []GT{
		{Frame: 0, Class: 0, Box: b1},
		{Frame: 0, Class: 0, Box: b2},
	}
	dets := []Det{{Frame: 0, Class: 0, Confidence: 0.9, Box: b1}}
	if m := MAP50(dets, gts); math.Abs(m-0.5) > 1e-9 {
		t.Fatalf("one of two found should be AP 0.5, got %v", m)
	}
}

func TestMAPAveragesOverClasses(t *testing.T) {
	b := box(0.5, 0.5, 0.1, 0.1)
	gts := []GT{
		{Frame: 0, Class: 0, Box: b},
		{Frame: 0, Class: 1, Box: box(0.2, 0.2, 0.1, 0.1)},
	}
	dets := []Det{{Frame: 0, Class: 0, Confidence: 0.9, Box: b}} // class 1 missed entirely
	if m := MAP50(dets, gts); math.Abs(m-0.5) > 1e-9 {
		t.Fatalf("class-mean should be (1+0)/2, got %v", m)
	}
}

func TestMAPCrossFrameNoMatch(t *testing.T) {
	b := box(0.5, 0.5, 0.1, 0.1)
	gts := []GT{{Frame: 0, Class: 0, Box: b}}
	dets := []Det{{Frame: 1, Class: 0, Confidence: 0.9, Box: b}}
	if m := MAP50(dets, gts); m != 0 {
		t.Fatalf("detections must only match ground truth in the same frame, got %v", m)
	}
}

func TestMAPBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 30; trial++ {
		var dets []Det
		var gts []GT
		for f := 0; f < 10; f++ {
			for k := 0; k < 4; k++ {
				gts = append(gts, GT{Frame: f, Class: rng.IntN(3), Box: box(rng.Float64(), rng.Float64(), 0.1, 0.1)})
				dets = append(dets, Det{Frame: f, Class: rng.IntN(3), Confidence: rng.Float64(), Box: box(rng.Float64(), rng.Float64(), 0.1, 0.1)})
			}
		}
		m := MAP50(dets, gts)
		if m < 0 || m > 1 || math.IsNaN(m) {
			t.Fatalf("mAP out of bounds: %v", m)
		}
	}
}

func TestAverageIoU(t *testing.T) {
	b := box(0.5, 0.5, 0.2, 0.2)
	gts := []GT{
		{Frame: 0, Class: 0, Box: b},
		{Frame: 0, Class: 0, Box: box(0.1, 0.1, 0.1, 0.1)}, // missed
	}
	dets := []Det{{Frame: 0, Class: 0, Confidence: 0.9, Box: b}}
	got := AverageIoU(dets, gts)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("average IoU should be (1+0)/2, got %v", got)
	}
}

func TestAverageIoUIgnoresWrongClass(t *testing.T) {
	b := box(0.5, 0.5, 0.2, 0.2)
	gts := []GT{{Frame: 0, Class: 0, Box: b}}
	dets := []Det{{Frame: 0, Class: 1, Confidence: 0.9, Box: b}}
	if got := AverageIoU(dets, gts); got != 0 {
		t.Fatalf("wrong class should not count, got %v", got)
	}
}

func TestCollectorWindowedMAP(t *testing.T) {
	c := NewCollector()
	b := box(0.5, 0.5, 0.1, 0.1)
	// Window 0 (t<10): perfect. Window 1 (t>=10): all missed.
	for f := 0; f < 10; f++ {
		tm := float64(f)
		c.AddFrame(f, tm, []GT{{Frame: f, Class: 0, Box: b}}, []Det{{Frame: f, Class: 0, Confidence: 0.9, Box: b}})
	}
	for f := 10; f < 20; f++ {
		tm := float64(f)
		c.AddFrame(f, tm, []GT{{Frame: f, Class: 0, Box: b}}, nil)
	}
	ws := c.WindowedMAP50(10)
	if len(ws) != 2 {
		t.Fatalf("expected 2 windows, got %d", len(ws))
	}
	if math.Abs(ws[0].MAP-1) > 1e-9 || ws[1].MAP != 0 {
		t.Fatalf("windows wrong: %+v", ws)
	}
	if c.Frames() != 20 {
		t.Fatalf("frames: %d", c.Frames())
	}
	if math.Abs(c.MAP50()-0.5) > 1e-9 {
		t.Fatalf("stream mAP should be 0.5, got %v", c.MAP50())
	}
}

func TestEmpiricalCDF(t *testing.T) {
	pts := EmpiricalCDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatal("want 3 points")
	}
	if pts[0].X != 1 || pts[2].X != 3 {
		t.Fatal("CDF must be sorted by x")
	}
	if math.Abs(pts[2].P-1) > 1e-12 || math.Abs(pts[0].P-1.0/3) > 1e-12 {
		t.Fatalf("CDF probabilities wrong: %+v", pts)
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{-1, 0, 1, 2}
	if got := FractionBelow(xs, 0); got != 0.25 {
		t.Fatalf("FractionBelow: got %v", got)
	}
	if got := FractionBelow(nil, 0); got != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median: got %v", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("min: got %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("max: got %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25: got %v", q)
	}
}

func TestRunning(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(3)
	if r.Mean() != 2 || r.Count() != 2 {
		t.Fatal("running mean wrong")
	}
	r.Reset()
	if r.Mean() != 0 || r.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty must be 0")
	}
}

func TestJainIndex(t *testing.T) {
	// Empty and all-zero allocations are perfectly fair by convention: with
	// nothing allocated there is no observable inequality (and no NaN).
	if got := JainIndex(nil); got != 1 {
		t.Fatalf("empty input: got %v, want 1", got)
	}
	if got := JainIndex([]float64{0, 0, 0}); got != 1 {
		t.Fatalf("all-zero input: got %v, want 1", got)
	}
	if got := JainIndex([]float64{7}); got != 1 {
		t.Fatalf("single device: got %v, want 1", got)
	}
	// Equal shares are exactly 1 — (n·x)²/(n·n·x²) cancels without rounding.
	if got := JainIndex([]float64{5, 5, 5, 5}); got != 1 {
		t.Fatalf("equal shares: got %v, want exactly 1", got)
	}
	// One device gets everything: the floor 1/n, exactly.
	if got := JainIndex([]float64{12, 0, 0, 0}); got != 0.25 {
		t.Fatalf("one-gets-all of 4: got %v, want exactly 0.25", got)
	}
	// One starved device of four equals (3·x)²/(4·3x²) = 3/4, exactly.
	if got := JainIndex([]float64{2, 2, 2, 0}); got != 0.75 {
		t.Fatalf("one starved of 4: got %v, want exactly 0.75", got)
	}
	// The index is scale-invariant and bounded in [1/n, 1].
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-15 {
		t.Fatalf("scale invariance broken: %v vs %v", a, b)
	}
	if a < 1.0/3 || a > 1 {
		t.Fatalf("index out of [1/n, 1]: %v", a)
	}
}

func TestRunningMerge(t *testing.T) {
	// Merging into a zero accumulator reproduces the source bit for bit:
	// sum and count transfer unchanged, so Mean performs the identical
	// division. This is what lets a tier merge per-replica accumulators and
	// still honour the 1-replica pass-through contract.
	var src Running
	for _, x := range []float64{0.1, 0.2, 0.7} {
		src.Add(x)
	}
	var dst Running
	dst.Merge(src)
	if dst.Count() != src.Count() || dst.Mean() != src.Mean() {
		t.Fatalf("merge into zero value not exact: %v/%d vs %v/%d",
			dst.Mean(), dst.Count(), src.Mean(), src.Count())
	}
	// Merging a second stream is equivalent to having Added its values after.
	var more Running
	more.Add(0.4)
	more.Add(0.6)
	dst.Merge(more)
	var flat Running
	for _, x := range []float64{0.1, 0.2, 0.7, 0.4, 0.6} {
		flat.Add(x)
	}
	if dst.Count() != 5 || dst.Mean() != flat.Mean() {
		t.Fatalf("merged mean %v (n=%d), want %v (n=5)", dst.Mean(), dst.Count(), flat.Mean())
	}
	// Merging an empty accumulator is a no-op.
	before := dst
	dst.Merge(Running{})
	if dst != before {
		t.Fatal("merging an empty Running changed the accumulator")
	}
}

// TestRunningWelford checks the one-pass variance/min/max extension against
// the textbook two-pass computation.
func TestRunningWelford(t *testing.T) {
	xs := []float64{3.5, -1.25, 0, 7.75, 2.5, -4, 9.125, 0.5}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	mean := Mean(xs)
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	wantVar := m2 / float64(len(xs)-1)
	if got := r.Variance(); math.Abs(got-wantVar) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, wantVar)
	}
	if got := r.StdDev(); math.Abs(got-math.Sqrt(wantVar)) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(wantVar))
	}
	if r.Min() != -4 || r.Max() != 9.125 {
		t.Errorf("Min/Max = %v/%v, want -4/9.125", r.Min(), r.Max())
	}
	// Mean stays the plain sum/n it has always been.
	if r.Mean() != mean {
		t.Errorf("Mean = %v, want %v", r.Mean(), mean)
	}
	// Degenerate sizes report zero spread, not NaN.
	var one Running
	one.Add(5)
	if one.Variance() != 0 || one.StdDev() != 0 {
		t.Error("single-value variance must be 0")
	}
	var empty Running
	if empty.Variance() != 0 || empty.Min() != 0 || empty.Max() != 0 {
		t.Error("empty accumulator must report zeros")
	}
}

// TestRunningMergeVariance checks the Chan et al. parallel update: merging
// split accumulators reproduces the sequential variance and range.
func TestRunningMergeVariance(t *testing.T) {
	xs := []float64{0.5, 2, -3, 8, 1.5, 1.5, -0.25, 4, 11, -6}
	var flat Running
	for _, x := range xs {
		flat.Add(x)
	}
	for _, split := range []int{1, 3, 5, 9} {
		var a, b Running
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		a.Merge(b)
		if math.Abs(a.Variance()-flat.Variance()) > 1e-12 {
			t.Errorf("split %d: merged variance %v, want %v", split, a.Variance(), flat.Variance())
		}
		if a.Min() != flat.Min() || a.Max() != flat.Max() {
			t.Errorf("split %d: merged min/max %v/%v, want %v/%v",
				split, a.Min(), a.Max(), flat.Min(), flat.Max())
		}
		if a.Count() != flat.Count() || a.Mean() != flat.Mean() {
			t.Errorf("split %d: merged mean/count diverged", split)
		}
	}
}

// apForClassOracle is apForClass as it stood before the keyed sort — a stable
// reflection sort over whole Dets and a map of matched ground truths — kept
// verbatim as the reference the current one must match bit for bit.
func apForClassOracle(dets []Det, gts []GT, class int, iouThresh float64) float64 {
	// Ground truths per frame for this class.
	gtByFrame := map[int][]int{} // frame -> indices into gts
	total := 0
	for i, g := range gts {
		if g.Class == class {
			gtByFrame[g.Frame] = append(gtByFrame[g.Frame], i)
			total++
		}
	}
	if total == 0 {
		return 0
	}
	var cls []Det
	for _, d := range dets {
		if d.Class == class {
			cls = append(cls, d)
		}
	}
	sort.SliceStable(cls, func(i, j int) bool { return cls[i].Confidence > cls[j].Confidence })

	matched := map[int]bool{} // gt index -> already matched
	tp := make([]bool, len(cls))
	for i, d := range cls {
		best, bestIdx := iouThresh, -1
		for _, gi := range gtByFrame[d.Frame] {
			if matched[gi] {
				continue
			}
			if iou := geom.IoU(d.Box, gts[gi].Box); iou >= best {
				best, bestIdx = iou, gi
			}
		}
		if bestIdx >= 0 {
			matched[bestIdx] = true
			tp[i] = true
		}
	}

	// Precision-recall curve and all-point interpolation.
	var cumTP, cumFP float64
	precisions := make([]float64, len(cls))
	recalls := make([]float64, len(cls))
	for i := range cls {
		if tp[i] {
			cumTP++
		} else {
			cumFP++
		}
		precisions[i] = cumTP / (cumTP + cumFP)
		recalls[i] = cumTP / float64(total)
	}
	// Make precision monotonically non-increasing from the right.
	for i := len(precisions) - 2; i >= 0; i-- {
		if precisions[i] < precisions[i+1] {
			precisions[i] = precisions[i+1]
		}
	}
	var ap, prevRecall float64
	for i := range cls {
		if recalls[i] > prevRecall {
			ap += (recalls[i] - prevRecall) * precisions[i]
			prevRecall = recalls[i]
		}
	}
	return ap
}

// mapOracle is MAP over apForClassOracle: classes with ground truth, in
// ascending order.
func mapOracle(dets []Det, gts []GT, iouThresh float64) float64 {
	seen := map[int]bool{}
	var classes []int
	for _, g := range gts {
		if !seen[g.Class] {
			seen[g.Class] = true
			classes = append(classes, g.Class)
		}
	}
	if len(classes) == 0 {
		return 0
	}
	sort.Ints(classes)
	var sum float64
	for _, c := range classes {
		sum += apForClassOracle(dets, gts, c, iouThresh)
	}
	return sum / float64(len(classes))
}

// TestMAPMatchesStableSortOracle holds MAP, WindowedMAP50 and WindowMAP50At
// to the oracle bit for bit on generated streams built to stress the
// ranking: confidences drawn from five values (long runs of ties, whose
// arrival order decides which duplicate claims a ground truth), a class that
// is detected but never present, a class that is present but never detected,
// and stretches of frames — whole windows — without any ground truth.
func TestMAPMatchesStableSortOracle(t *testing.T) {
	const (
		frames    = 400
		fps       = 10.0
		windowSec = 5.0
	)
	confs := []float64{0.2, 0.5, 0.5, 0.8, 0.95}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		randBox := func() geom.Box {
			return box(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64(), 0.05+0.2*rng.Float64(), 0.05+0.2*rng.Float64())
		}
		c := NewCollector()
		type frame struct {
			t    float64
			gts  []GT
			dets []Det
		}
		var all []frame
		for f := 0; f < frames; f++ {
			fr := frame{t: float64(f) / fps}
			if (f/70)%3 != 2 { // every third 7 s stretch has no ground truth
				for n := rng.IntN(4); n > 0; n-- {
					fr.gts = append(fr.gts, GT{Frame: f, Class: rng.IntN(3), Box: randBox()}) // classes 0-2; 2 is never detected
				}
			}
			for n := rng.IntN(7); n > 0; n-- {
				d := Det{Frame: f, Class: []int{0, 1, 3}[rng.IntN(3)], Confidence: confs[rng.IntN(len(confs))], Box: randBox()} // 3 is never present
				if len(fr.gts) > 0 && rng.IntN(3) > 0 {
					// Land on a ground truth (sometimes twice: duplicates race for it).
					g := fr.gts[rng.IntN(len(fr.gts))]
					d.Box = g.Box
					if g.Class != 2 {
						d.Class = g.Class
					}
				}
				fr.dets = append(fr.dets, d)
			}
			c.AddFrame(f, fr.t, fr.gts, fr.dets)
			all = append(all, fr)
		}
		// span gathers the frames with lo <= t < hi, in arrival order.
		span := func(lo, hi float64) (dets []Det, gts []GT) {
			for _, fr := range all {
				if fr.t >= lo && fr.t < hi {
					dets = append(dets, fr.dets...)
					gts = append(gts, fr.gts...)
				}
			}
			return dets, gts
		}
		same := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: %s = %v (%#x), oracle %v (%#x)", seed, what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}

		dets, gts := span(0, math.Inf(1))
		for _, thr := range []float64{0.3, 0.5, 0.75} {
			same("MAP", MAP(dets, gts, thr), mapOracle(dets, gts, thr))
		}
		same("MAP without ground truth", MAP(dets, nil, 0.5), mapOracle(dets, nil, 0.5))

		var want []WindowScore
		empty := 0
		for w := 0; float64(w)*windowSec < frames/fps; w++ {
			start := float64(w) * windowSec
			wd, wg := span(start, start+windowSec)
			got, ok := c.WindowMAP50At(start, windowSec)
			if ok != (len(wg) > 0) {
				t.Fatalf("seed %d: WindowMAP50At(%v) ok=%v with %d ground truths", seed, start, ok, len(wg))
			}
			if !ok {
				empty++
				continue
			}
			same("WindowMAP50At", got, mapOracle(wd, wg, 0.5))
			want = append(want, WindowScore{Start: start, MAP: mapOracle(wd, wg, 0.5)})
		}
		if empty == 0 {
			t.Fatalf("seed %d: the stream was meant to hold windows without ground truth", seed)
		}
		got := c.WindowedMAP50(windowSec)
		if len(got) != len(want) {
			t.Fatalf("seed %d: WindowedMAP50 returned %d windows, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].Start != want[i].Start {
				t.Fatalf("seed %d: window %d starts at %v, oracle %v", seed, i, got[i].Start, want[i].Start)
			}
			same("WindowedMAP50", got[i].MAP, want[i].MAP)
		}
	}
}
