// Package metrics implements the paper's evaluation metrics: mAP@0.5 with
// VOC-style all-point interpolated average precision, average IoU (Table
// III), per-window mAP series and CDFs (Figure 5), and running statistics.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// ground-truth instance. dets and gts may come in any order.
func MAP(dets []Det, gts []GT, iouThresh float64) float64 {
	var s scorer
	recs, gtClass, _ := s.scoreAll(dets, gts, iouThresh)
	return s.meanAP(recs, gtClass)
}

// MAP50 is MAP at IoU 0.5, the paper's headline metric.
func MAP50(dets []Det, gts []GT) float64 { return MAP(dets, gts, 0.5) }

// AverageIoU returns the mean, over all ground truths, of the IoU with the
// best same-class detection in the same frame (0 when the object is missed).
// This is the Table III "Average IoU" metric: it penalises both bad
// localisation and misses.
func AverageIoU(dets []Det, gts []GT) float64 {
	if len(gts) == 0 {
		return 0
	}
	var s scorer
	_, _, best := s.scoreAll(dets, gts, 0.5)
	// Summed in the caller's order: float addition is not associative.
	var sum float64
	for _, iou := range best {
		sum += iou
	}
	return sum / float64(len(gts))
}

// scored is what outlives a detection once its frame has been scored. Whether
// a detection is a true positive depends only on the same-class detections
// and ground truths of its own frame, and a frame lies wholly inside or
// outside any time window, so the flag serves the whole-stream mAP and every
// window alike and the boxes can go.
type scored struct {
	conf  float64
	class int32
	tp    bool
}

// class32 narrows a class to the four bytes a scored record has for it.
// Classes are a detector's class indices; one that does not fit is a bug in
// the caller.
func class32(class int) int32 {
	if class < math.MinInt32 || class > math.MaxInt32 {
		panic(fmt.Sprintf("metrics: class %d does not fit 32 bits", class))
	}
	return int32(class)
}

// key ranks a detection: by confidence, highest first, ties in arrival
// order. That order is total, so an unstable sort reproduces the stable one
// exactly while moving 16 bytes per swap. A NaN confidence compares as a tie
// and falls to arrival order; it has no defined rank, and a softmax over
// finite logits cannot emit one.
type key struct {
	conf float64
	idx  int
}

func byConfidence(a, b key) int {
	switch {
	case a.conf > b.conf:
		return -1
	case a.conf < b.conf:
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// scorer is the one implementation of matching and average precision, driven
// frame by frame by a Collector and over whole slices by MAP and AverageIoU.
// It holds the open frame and the scratch both steps reuse.
type scorer struct {
	dets []frameDet
	gts  []frameGT
	keys []key

	classes    []classTotal
	precisions []float64
	recalls    []float64
}

type frameDet struct {
	scored
	box geom.Box
}

type frameGT struct {
	class   int32
	matched bool
	best    float64 // IoU with the best same-class detection, 0 when missed
	box     geom.Box
}

// classTotal counts the ground truths of one class.
type classTotal struct {
	class int32
	total int
}

func (s *scorer) beginFrame() { s.dets, s.gts = s.dets[:0], s.gts[:0] }

func (s *scorer) addDet(d Det) {
	s.dets = append(s.dets, frameDet{scored{conf: d.Confidence, class: class32(d.Class)}, d.Box})
}

func (s *scorer) addGT(g GT) {
	s.gts = append(s.gts, frameGT{class: class32(g.Class), box: g.Box})
}

// scoreFrame matches the open frame's detections to its ground truths:
// greedily in rank order, each detection taking the unmatched same-class
// ground truth it overlaps most, at thresh or above, the later one on a tie.
// It leaves each detection's tp flag and each ground truth's best IoU,
// computing every same-class IoU once for the two.
//
//shoggoth:hotpath
func (s *scorer) scoreFrame(thresh float64) {
	if len(s.dets) == 0 || len(s.gts) == 0 {
		return
	}
	if cap(s.keys) < len(s.dets) {
		s.keys = make([]key, len(s.dets))
	}
	keys := s.keys[:len(s.dets)]
	for i := range s.dets {
		keys[i] = key{s.dets[i].conf, i}
	}
	slices.SortFunc(keys, byConfidence)
	for _, k := range keys {
		d := &s.dets[k.idx]
		best, bestIdx := thresh, -1
		for gi := range s.gts {
			g := &s.gts[gi]
			if g.class != d.class {
				continue
			}
			iou := geom.IoU(d.box, g.box)
			if iou > g.best {
				g.best = iou
			}
			if !g.matched && iou >= best {
				best, bestIdx = iou, gi
			}
		}
		if bestIdx >= 0 {
			s.gts[bestIdx].matched = true
			d.tp = true
		}
	}
}

// scoreAll scores dets against gts frame by frame. It returns one record per
// detection and the best IoU per ground truth, both in the caller's order,
// and the ground truths' classes.
func (s *scorer) scoreAll(dets []Det, gts []GT, thresh float64) (recs []scored, gtClass []int32, best []float64) {
	// Group by frame, arrival order kept within one; input that is in frame
	// order already is scored in place.
	detOrder := sortedBy(len(dets), func(i int) int { return dets[i].Frame })
	gtOrder := sortedBy(len(gts), func(i int) int { return gts[i].Frame })
	dets, gts = gather(dets, detOrder), gather(gts, gtOrder)

	recs = make([]scored, len(dets))
	gtClass = make([]int32, len(gts))
	best = make([]float64, len(gts))
	for d, g := 0, 0; d < len(dets) || g < len(gts); {
		frame := 0
		if g == len(gts) || (d < len(dets) && dets[d].Frame < gts[g].Frame) {
			frame = dets[d].Frame
		} else {
			frame = gts[g].Frame
		}
		s.beginFrame()
		d0, g0 := d, g
		for ; d < len(dets) && dets[d].Frame == frame; d++ {
			s.addDet(dets[d])
		}
		for ; g < len(gts) && gts[g].Frame == frame; g++ {
			s.addGT(gts[g])
		}
		s.scoreFrame(thresh)
		for i := range s.dets {
			recs[d0+i] = s.dets[i].scored
		}
		for i := range s.gts {
			gtClass[g0+i], best[g0+i] = s.gts[i].class, s.gts[i].best
		}
	}
	return scatter(recs, detOrder), gtClass, scatter(best, gtOrder)
}

// meanAP returns the mean, over the classes among gtClass in ascending order,
// of the class's all-point interpolated AP over recs. The order is fixed
// because float addition is not associative: identical runs must produce
// bit-identical mAP.
func (s *scorer) meanAP(recs []scored, gtClass []int32) float64 {
	s.classes = s.classes[:0]
	for _, class := range gtClass {
		i := 0
		for i < len(s.classes) && s.classes[i].class < class {
			i++
		}
		if i == len(s.classes) || s.classes[i].class != class {
			s.classes = slices.Insert(s.classes, i, classTotal{class: class})
		}
		s.classes[i].total++
	}
	if len(s.classes) == 0 {
		return 0
	}
	var sum float64
	for _, c := range s.classes {
		sum += s.averagePrecision(recs, c.class, c.total)
	}
	return sum / float64(len(s.classes))
}

// averagePrecision computes all-point interpolated AP for one class with
// total ground truths.
func (s *scorer) averagePrecision(recs []scored, class int32, total int) float64 {
	keys := s.keys[:0]
	for i := range recs {
		if recs[i].class == class {
			keys = append(keys, key{recs[i].conf, i})
		}
	}
	s.keys = keys
	slices.SortFunc(keys, byConfidence)

	// Precision-recall curve and all-point interpolation.
	s.precisions = slices.Grow(s.precisions[:0], len(keys))
	s.recalls = slices.Grow(s.recalls[:0], len(keys))
	precisions, recalls := s.precisions[:len(keys)], s.recalls[:len(keys)]
	var cumTP, cumFP float64
	for i, k := range keys {
		if recs[k.idx].tp {
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

// sortedBy returns the indices 0…n−1 ordered by key, index order kept among
// equal keys, or nil when that is the order they are in already.
func sortedBy(n int, key func(i int) int) []int {
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = key(i-1) <= key(i)
	}
	if sorted {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(key(a), key(b)) })
	return order
}

// gather returns xs in the given order: out[i] = xs[order[i]]. A nil order
// is the identity and returns xs itself.
func gather[T any](xs []T, order []int) []T {
	if order == nil {
		return xs
	}
	out := make([]T, len(xs))
	for i, from := range order {
		out[i] = xs[from]
	}
	return out
}

// scatter undoes gather: out[order[i]] = xs[i].
func scatter[T any](xs []T, order []int) []T {
	if order == nil {
		return xs
	}
	out := make([]T, len(xs))
	for i, to := range order {
		out[to] = xs[i]
	}
	return out
}
