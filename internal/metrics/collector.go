package metrics

import (
	"cmp"
	"slices"
)

// Collector accumulates detections and ground truths over a run and computes
// whole-stream and windowed metrics.
type Collector struct {
	dets []Det
	gts  []GT
	// frameTime[f] is the stream time of frame f, for window bucketing;
	// recorded[f] tells a frame recorded at time 0 from one never recorded.
	// Frames are the stream's dense 0…n−1 indices, so a slice serves.
	frameTime []float64
	recorded  []bool
	frames    int // distinct frames recorded

	// Cursors keep streaming WindowMAP50At queries linear overall: frames
	// arrive in nondecreasing time, so successive windows only ever skip
	// forward. An out-of-order start resets them.
	winStart float64
	winGT    int
	winDet   int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// AddFrame records one evaluated frame.
func (c *Collector) AddFrame(frame int, t float64, gts []GT, dets []Det) {
	c.BeginFrame(frame, t)
	c.gts = append(c.gts, gts...)
	c.dets = append(c.dets, dets...)
}

// BeginFrame records that frame (a non-negative stream index) was evaluated
// at stream time t; the frame's ground truths and detections follow through
// AddGT and AddDet. Recording a frame again moves its time.
func (c *Collector) BeginFrame(frame int, t float64) {
	if frame >= len(c.frameTime) {
		c.frameTime = append(c.frameTime, make([]float64, frame+1-len(c.frameTime))...)
		c.recorded = append(c.recorded, make([]bool, frame+1-len(c.recorded))...)
	}
	if !c.recorded[frame] {
		c.recorded[frame] = true
		c.frames++
	}
	c.frameTime[frame] = t
}

// AddGT records one ground truth of a frame begun with BeginFrame.
func (c *Collector) AddGT(g GT) { c.gts = append(c.gts, g) }

// AddDet records one detection of a frame begun with BeginFrame.
func (c *Collector) AddDet(d Det) { c.dets = append(c.dets, d) }

// Frames returns the number of distinct recorded frames.
func (c *Collector) Frames() int { return c.frames }

// timeOf returns the stream time a frame was recorded at, 0 for a frame that
// never was.
func (c *Collector) timeOf(frame int) float64 {
	if frame < 0 || frame >= len(c.frameTime) {
		return 0
	}
	return c.frameTime[frame]
}

// MAP50 computes mAP@0.5 over everything recorded.
func (c *Collector) MAP50() float64 { return MAP50(c.dets, c.gts) }

// AverageIoU computes the Table III metric over everything recorded.
func (c *Collector) AverageIoU() float64 { return AverageIoU(c.dets, c.gts) }

// WindowScore is the mAP of one time window.
type WindowScore struct {
	Start float64 `json:"start"` // window start time (seconds)
	MAP   float64 `json:"map"`
}

// WindowMAP50At computes mAP@0.5 over the frames recorded in
// [start, start+windowSec). ok reports whether the window held any ground
// truth (windows without it are skipped by WindowedMAP50 too), so streaming
// observers see exactly the windows the final Results will contain.
// Successive calls with nondecreasing starts — the streaming pattern — scan
// each recorded region once in total.
func (c *Collector) WindowMAP50At(start, windowSec float64) (map50 float64, ok bool) {
	if start < c.winStart {
		c.winGT, c.winDet = 0, 0
	}
	c.winStart = start
	end := start + windowSec
	for c.winGT < len(c.gts) && c.timeOf(c.gts[c.winGT].Frame) < start {
		c.winGT++
	}
	for c.winDet < len(c.dets) && c.timeOf(c.dets[c.winDet].Frame) < start {
		c.winDet++
	}
	gtEnd := c.winGT
	for gtEnd < len(c.gts) && c.timeOf(c.gts[gtEnd].Frame) < end {
		gtEnd++
	}
	if gtEnd == c.winGT {
		return 0, false
	}
	detEnd := c.winDet
	for detEnd < len(c.dets) && c.timeOf(c.dets[detEnd].Frame) < end {
		detEnd++
	}
	// MAP50 only reads its inputs, so the window's runs are scored in place.
	return MAP50(c.dets[c.winDet:detEnd], c.gts[c.winGT:gtEnd]), true
}

// WindowedMAP50 buckets frames into windows of windowSec stream seconds and
// returns per-window mAP@0.5 (used for the Figure 5 CDF).
func (c *Collector) WindowedMAP50(windowSec float64) []WindowScore {
	if windowSec <= 0 || c.frames == 0 {
		return nil
	}
	window := func(frame int) int { return int(c.timeOf(frame) / windowSec) }
	gts, gtWin := inWindowOrder(c.gts, func(g *GT) int { return window(g.Frame) })
	dets, detWin := inWindowOrder(c.dets, func(d *Det) int { return window(d.Frame) })

	// Each window owns one contiguous run of gts and one of dets; a window
	// without ground truth is skipped, detections and all. Non-nil even when
	// empty: nil is for a collector that recorded no frame at all.
	out := []WindowScore{}
	d := 0
	for g := 0; g < len(gts); {
		w := gtWin[g]
		gEnd := runEnd(gtWin, g)
		for d < len(dets) && detWin[d] < w {
			d++
		}
		dEnd := d
		if d < len(dets) && detWin[d] == w {
			dEnd = runEnd(detWin, d)
		}
		out = append(out, WindowScore{
			Start: float64(w) * windowSec,
			MAP:   MAP50(dets[d:dEnd], gts[g:gEnd]),
		})
		g, d = gEnd, dEnd
	}
	return out
}

// inWindowOrder returns xs ordered by window, arrival order kept within a
// window, and each element's window beside it. Frames arrive in
// nondecreasing time, so xs is normally in that order already and is
// returned as it is; only out-of-order frames cost a sorted copy.
func inWindowOrder[T any](xs []T, window func(*T) int) ([]T, []int) {
	wins := make([]int, len(xs))
	for i := range xs {
		wins[i] = window(&xs[i])
	}
	if slices.IsSorted(wins) {
		return xs, wins
	}
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(wins[a], wins[b]) })
	sorted := make([]T, len(xs))
	sortedWins := make([]int, len(xs))
	for i, from := range order {
		sorted[i], sortedWins[i] = xs[from], wins[from]
	}
	return sorted, sortedWins
}

// runEnd returns the end of the run of equal values that starts at wins[i].
func runEnd(wins []int, i int) int {
	end := i + 1
	for end < len(wins) && wins[end] == wins[i] {
		end++
	}
	return end
}
