// Package metrics implements the paper's evaluation metrics: mAP@0.5 with
// VOC-style all-point interpolated average precision, average IoU (Table
// III), per-window mAP series and CDFs (Figure 5), and running statistics.
package metrics

import (
	"cmp"
	"slices"
	"sort"

	"shoggoth/internal/geom"
)

// Det is one detection for evaluation.
type Det struct {
	Frame      int
	Class      int
	Confidence float64
	Box        geom.Box
}

// GT is one ground-truth object for evaluation.
type GT struct {
	Frame int
	Class int
	Box   geom.Box
}

// MAP computes mean average precision at the given IoU threshold: per-class
// all-point interpolated AP, averaged over classes that have at least one
// ground-truth instance.
func MAP(dets []Det, gts []GT, iouThresh float64) float64 {
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
		sum += apForClass(dets, gts, c, iouThresh)
	}
	return sum / float64(len(classes))
}

// MAP50 is MAP at IoU 0.5, the paper's headline metric.
func MAP50(dets []Det, gts []GT) float64 { return MAP(dets, gts, 0.5) }

// apForClass computes all-point interpolated AP for one class.
func apForClass(dets []Det, gts []GT, class int, iouThresh float64) float64 {
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

// AverageIoU returns the mean, over all ground truths, of the IoU with the
// best same-class detection in the same frame (0 when the object is missed).
// This is the Table III "Average IoU" metric: it penalises both bad
// localisation and misses.
func AverageIoU(dets []Det, gts []GT) float64 {
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
