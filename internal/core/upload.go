package core

import (
	"sync"

	"shoggoth/internal/cloud"
	"shoggoth/internal/video"
)

// upload is one sample batch, from its first buffered frame until the cloud
// has labeled or dropped it. It holds the frames — by value at events
// fidelity, where the sparse stream writes them in place, and as the
// renderer's own at full fidelity, where the renderer owns them — the
// telemetry the batch reports, and its two callbacks, bound once when the
// upload is made. A System takes one from uploadPools at a batch's first
// sampled frame and gives it back when its labeled callback returns or the
// cloud drops the batch, so in steady state the upload cycle allocates
// nothing of its own.
type upload struct {
	sys           *System
	first         float64 // capture time of the first buffered frame
	alpha, lambda float64 // the telemetry the batch reports
	// frames is what the cloud and the strategy hooks read. At events
	// fidelity frames[i] is &vals[i]; a full-fidelity upload leaves vals
	// empty. Both have the upload's capacity.
	frames []*video.Frame
	vals   []video.Frame
	// deliver is arrive and labeled is done, as method values taken once:
	// taking one allocates.
	deliver func(now float64)
	labeled func(cloud.BatchResult)
}

// uploadPools maps a capacity to the sync.Pool of free uploads that hold
// that many frames. Every System in the process shares them, so upload
// memory follows the batches being built and in flight rather than the
// fleet's size: a spare kept per device would hold a full-size buffer
// standing on each one. A batch starts in an upload of minUpload frames and
// moves to one four times larger, never past UploadFrames, whenever it
// fills, so most batches never move and few capacities exist.
var uploadPools sync.Map

// minUpload is the capacity a batch starts in.
const minUpload = 4

// getUpload returns a free, empty upload that holds n frames.
func getUpload(n int) *upload {
	p, ok := uploadPools.Load(n)
	if !ok {
		p, _ = uploadPools.LoadOrStore(n, new(sync.Pool))
	}
	if u, ok := p.(*sync.Pool).Get().(*upload); ok {
		return u
	}
	u := &upload{frames: make([]*video.Frame, 0, n), vals: make([]video.Frame, 0, n)}
	u.deliver = u.arrive
	u.labeled = u.done
	return u
}

// release gives the upload back to its pool. Nothing may read its frames
// afterwards: under shoggothdebug their values are poisoned first, so a
// late read moves bytes.
func (u *upload) release() {
	poisonFrames(u.vals)
	clear(u.frames) // a pooled upload pins no renderer frame
	u.frames, u.vals = u.frames[:0], u.vals[:0]
	u.sys = nil
	p, _ := uploadPools.Load(cap(u.frames))
	p.(*sync.Pool).Put(u)
}

// arrive runs when the upload reaches the cloud.
func (u *upload) arrive(now float64) { u.sys.cloudReceive(u, now) }

// done runs when the cloud has labeled the upload; the upload is free once
// the batch's hooks have run.
func (u *upload) done(batch cloud.BatchResult) {
	u.sys.onBatchLabeled(u.frames, u.alpha, u.lambda, batch)
	u.release()
}

// buffer returns the upload the next sampled frame, captured at t, joins:
// a fresh one at a batch's first frame, else the current one, moved to a
// larger upload when it is full.
func (s *System) buffer(t float64) *upload {
	u := s.buf
	switch {
	case u == nil:
		u = getUpload(min(minUpload, s.cfg.UploadFrames))
		u.sys, u.first = s, t
	case len(u.frames) == cap(u.frames):
		// A full upload holds fewer than UploadFrames frames: it would
		// have left otherwise.
		big := getUpload(min(4*cap(u.frames), s.cfg.UploadFrames))
		big.sys, big.first = s, u.first
		big.vals = append(big.vals, u.vals...)
		for i, f := range u.frames {
			if i < len(big.vals) {
				f = &big.vals[i] // the value moved
			}
			big.frames = append(big.frames, f)
		}
		u.release()
		u = big
	}
	s.buf = u
	return u
}

// buffered returns the number of frames waiting for the next upload.
func (s *System) buffered() int {
	if s.buf == nil {
		return 0
	}
	return len(s.buf.frames)
}

// bufferSample adds a rendered frame to the next upload (full fidelity).
func (s *System) bufferSample(f *video.Frame, t float64) {
	u := s.buffer(t)
	u.frames = append(u.frames, f)
	s.results.SampledFrames++
}

// bufferMeta adds sampled frame idx, captured at t, to the next upload as
// sparse metadata written in place (events fidelity): the analytic cloud
// never reads proposals.
func (s *System) bufferMeta(idx int, t float64) {
	u := s.buffer(t)
	u.vals = u.vals[:len(u.vals)+1] // buffer left room; MetaInto overwrites the slot whole
	f := &u.vals[len(u.vals)-1]
	s.sparse.MetaInto(f, idx, t)
	u.frames = append(u.frames, f)
	s.results.SampledFrames++
}

// flushDue reports whether the next upload leaves at frame time t: its
// buffer is full, or its first frame has waited UploadMaxWaitSec.
func (s *System) flushDue(t float64) bool {
	u := s.buf
	return u != nil && (len(u.frames) >= s.cfg.UploadFrames || t-u.first >= s.cfg.UploadMaxWaitSec)
}
