package metrics

import "fmt"

// Collector scores a run's frames as they arrive and computes whole-stream
// and windowed metrics from what the scoring leaves: 16 bytes per detection,
// a class per ground truth, and a running IoU sum.
//
// Each frame is evaluated once, in stream order: BeginFrame takes strictly
// increasing indices, and AddGT and AddDet belong between a frame's
// BeginFrame and the next call that is neither — the next BeginFrame or any
// query scores the frame and lets its boxes go. They must name that frame.
// A call that breaks this is a bug in the caller and panics.
type Collector struct {
	frames  []frameRec
	recs    []scored // every closed frame's detections, in arrival order
	gtClass []int32  // every closed frame's ground truths, likewise
	iouSum  float64  // over gtClass, of each one's best same-class IoU

	next int  // lowest index BeginFrame accepts: the last frame's, plus one
	open bool // frame next−1 has yet to be scored

	// The cursor keeps streaming WindowMAP50At queries linear overall: frames
	// arrive in nondecreasing time, so successive windows only ever skip
	// forward. An out-of-order start resets it.
	winStart float64
	winFrame int

	// Built by the first BeginFrame: a collector that never sees a frame (an
	// events-fidelity device's) stays this struct and nothing else.
	s *scorer
}

// frameRec is one frame: its stream time and where its run of recs and of
// gtClass ends. A run begins where the frame before ends.
type frameRec struct {
	time          float64
	detEnd, gtEnd int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// AddFrame records one evaluated frame.
func (c *Collector) AddFrame(frame int, t float64, gts []GT, dets []Det) {
	c.BeginFrame(frame, t)
	for _, g := range gts {
		c.AddGT(g)
	}
	for _, d := range dets {
		c.AddDet(d)
	}
}

// BeginFrame records that frame (a non-negative stream index, above every
// frame before it) was evaluated at stream time t; the frame's ground truths
// and detections follow through AddGT and AddDet.
func (c *Collector) BeginFrame(frame int, t float64) {
	if frame < c.next {
		panic(fmt.Sprintf("metrics: BeginFrame(%d) after frame %d: frames are evaluated once, in stream order", frame, c.next-1))
	}
	c.closeFrame()
	if c.s == nil {
		c.s = &scorer{}
	}
	c.s.beginFrame()
	c.next, c.open = frame+1, true
	c.frames = append(c.frames, frameRec{time: t, detEnd: len(c.recs), gtEnd: len(c.gtClass)})
}

// AddGT records one ground truth of the frame begun with BeginFrame.
func (c *Collector) AddGT(g GT) {
	c.mustBeOpen(g.Frame)
	c.s.addGT(g)
}

// AddDet records one detection of the frame begun with BeginFrame.
func (c *Collector) AddDet(d Det) {
	c.mustBeOpen(d.Frame)
	c.s.addDet(d)
}

func (c *Collector) mustBeOpen(frame int) {
	if !c.open || frame != c.next-1 {
		panic(fmt.Sprintf("metrics: a box of frame %d outside that frame's BeginFrame (last begun %d, open %v)", frame, c.next-1, c.open))
	}
}

// closeFrame scores the open frame, if there is one, and keeps the outcome.
func (c *Collector) closeFrame() {
	if !c.open {
		return
	}
	c.open = false
	s := c.s
	s.scoreFrame(0.5)
	for i := range s.dets {
		c.recs = append(c.recs, s.dets[i].scored)
	}
	for i := range s.gts {
		c.gtClass = append(c.gtClass, s.gts[i].class)
		c.iouSum += s.gts[i].best
	}
	f := &c.frames[len(c.frames)-1]
	f.detEnd, f.gtEnd = len(c.recs), len(c.gtClass)
}

// Frames returns the number of recorded frames.
func (c *Collector) Frames() int { return len(c.frames) }

// MAP50 computes mAP@0.5 over everything recorded.
func (c *Collector) MAP50() float64 {
	m, _ := c.map50Over(0, len(c.frames))
	return m
}

// AverageIoU computes the Table III metric over everything recorded.
func (c *Collector) AverageIoU() float64 {
	c.closeFrame()
	if len(c.gtClass) == 0 {
		return 0
	}
	return c.iouSum / float64(len(c.gtClass))
}

// map50Over computes mAP@0.5 over frames[lo:hi]. ok reports whether they
// hold any ground truth.
func (c *Collector) map50Over(lo, hi int) (map50 float64, ok bool) {
	c.closeFrame()
	det0, gt0 := c.runStart(lo)
	det1, gt1 := c.runStart(hi)
	if gt1 == gt0 {
		return 0, false
	}
	return c.s.meanAP(c.recs[det0:det1], c.gtClass[gt0:gt1]), true
}

// runStart returns where frame i's runs of recs and of gtClass begin, which
// is where frame i−1's end; i may be len(frames).
func (c *Collector) runStart(i int) (det, gt int) {
	if i == 0 {
		return 0, 0
	}
	return c.frames[i-1].detEnd, c.frames[i-1].gtEnd
}

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
// each frame record once in total. Frames are taken to arrive in
// nondecreasing time: the window is the run of frames from the first at or
// after start to the first at or after its end.
func (c *Collector) WindowMAP50At(start, windowSec float64) (map50 float64, ok bool) {
	if start < c.winStart {
		c.winFrame = 0
	}
	c.winStart = start
	end := start + windowSec
	for c.winFrame < len(c.frames) && c.frames[c.winFrame].time < start {
		c.winFrame++
	}
	hi := c.winFrame
	for hi < len(c.frames) && c.frames[hi].time < end {
		hi++
	}
	return c.map50Over(c.winFrame, hi)
}

// WindowedMAP50 buckets frames into windows of windowSec stream seconds and
// returns per-window mAP@0.5 (used for the Figure 5 CDF). Frames whose times
// go backwards land in the window of their time all the same.
func (c *Collector) WindowedMAP50(windowSec float64) []WindowScore {
	if windowSec <= 0 || len(c.frames) == 0 {
		return nil
	}
	window := func(i int) int { return int(c.frames[i].time / windowSec) }
	if order := sortedBy(len(c.frames), window); order != nil {
		return c.reordered(order).WindowedMAP50(windowSec)
	}
	// Each window owns one contiguous run of frames; a window without ground
	// truth is skipped, detections and all. Non-nil even when empty: nil is
	// for a collector that recorded no frame at all.
	windows := 1
	for i := 1; i < len(c.frames); i++ {
		if window(i) != window(i-1) {
			windows++
		}
	}
	out := make([]WindowScore, 0, windows)
	for lo := 0; lo < len(c.frames); {
		w := window(lo)
		hi := lo + 1
		for hi < len(c.frames) && window(hi) == w {
			hi++
		}
		if m, ok := c.map50Over(lo, hi); ok {
			out = append(out, WindowScore{Start: float64(w) * windowSec, MAP: m})
		}
		lo = hi
	}
	return out
}

// reordered returns a collector that holds c's frames in the given order,
// for queries only.
func (c *Collector) reordered(order []int) *Collector {
	c.closeFrame()
	out := &Collector{
		frames:  make([]frameRec, 0, len(c.frames)),
		recs:    make([]scored, 0, len(c.recs)),
		gtClass: make([]int32, 0, len(c.gtClass)),
		s:       c.s,
	}
	for _, i := range order {
		det0, gt0 := c.runStart(i)
		f := c.frames[i]
		out.recs = append(out.recs, c.recs[det0:f.detEnd]...)
		out.gtClass = append(out.gtClass, c.gtClass[gt0:f.gtEnd]...)
		out.frames = append(out.frames, frameRec{time: f.time, detEnd: len(out.recs), gtEnd: len(out.gtClass)})
	}
	return out
}
