package metrics

import (
	"cmp"
	"slices"
	"sort"

	"shoggoth/internal/geom"
)

// The oracle: MAP, apForClass and AverageIoU as they stood before frames were
// scored on arrival — every box kept, the matches of each class re-derived
// per query through maps from frame to boxes — with their bodies verbatim,
// and the Collector that sat on them. The scorer is held to these bit for
// bit.

// oracleMAP is MAP as it stood when it matched class by class through maps.
func oracleMAP(dets []Det, gts []GT, iouThresh float64) float64 {
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
	// Summation order must be stable (float addition is not associative):
	// identical runs must produce bit-identical mAP.
	sort.Ints(classes)
	var sum float64
	for _, c := range classes {
		sum += oracleAPForClass(dets, gts, c, iouThresh)
	}
	return sum / float64(len(classes))
}

func oracleMAP50(dets []Det, gts []GT) float64 { return oracleMAP(dets, gts, 0.5) }

// oracleAPForClass is apForClass, body verbatim.
func oracleAPForClass(dets []Det, gts []GT, class int, iouThresh float64) float64 {
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
	// Rank the class's detections by confidence, highest first, ties in
	// arrival order. Sorting (confidence, arrival index) keys makes that
	// order total, so an unstable sort reproduces the stable one exactly
	// while moving 16 bytes per swap instead of a whole Det. A NaN
	// confidence compares as a tie and falls to arrival order; it had no
	// defined rank under a plain `>` comparator either, and a softmax over
	// finite logits cannot emit one.
	type key struct {
		conf float64
		idx  int
	}
	var keys []key
	for i := range dets {
		if dets[i].Class == class {
			keys = append(keys, key{dets[i].Confidence, i})
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.conf > b.conf:
			return -1
		case a.conf < b.conf:
			return 1
		}
		return cmp.Compare(a.idx, b.idx)
	})

	matched := make([]bool, len(gts)) // gt index -> already matched
	tp := make([]bool, len(keys))
	for i, k := range keys {
		d := &dets[k.idx]
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
	precisions := make([]float64, len(keys))
	recalls := make([]float64, len(keys))
	for i := range keys {
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
	for i := range keys {
		if recalls[i] > prevRecall {
			ap += (recalls[i] - prevRecall) * precisions[i]
			prevRecall = recalls[i]
		}
	}
	return ap
}

// oracleAverageIoU is AverageIoU, body verbatim.
func oracleAverageIoU(dets []Det, gts []GT) float64 {
	if len(gts) == 0 {
		return 0
	}
	detByFrame := map[int][]Det{}
	for _, d := range dets {
		detByFrame[d.Frame] = append(detByFrame[d.Frame], d)
	}
	var sum float64
	for _, g := range gts {
		best := 0.0
		for _, d := range detByFrame[g.Frame] {
			if d.Class != g.Class {
				continue
			}
			if iou := geom.IoU(d.Box, g.Box); iou > best {
				best = iou
			}
		}
		sum += best
	}
	return sum / float64(len(gts))
}

// collectorOracle is the map-backed Collector that kept every box, scoring
// through the oracle above.
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

func (c *collectorOracle) MAP50() float64 { return oracleMAP50(c.dets, c.gts) }

func (c *collectorOracle) AverageIoU() float64 { return oracleAverageIoU(c.dets, c.gts) }

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
	return oracleMAP50(dets, gts), true
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
			MAP:   oracleMAP50(detsByW[w], gtsByW[w]),
		})
	}
	return out
}
