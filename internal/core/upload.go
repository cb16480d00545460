package core

import (
	"sync"

	"shoggoth/internal/cloud"
	"shoggoth/internal/video"
)

// upload is one sample batch, from its first buffered frame until the cloud
// has labeled or dropped it. It holds the batch's frames, the telemetry the
// batch reports, and its two callbacks, bound once when the upload is made.
// A System takes one from uploadPools at a batch's first sampled frame and
// gives it back when its labeled callback returns or the cloud drops the
// batch, so in steady state the upload cycle allocates nothing of its own.
type upload struct {
	sys           *System
	first         float64 // capture time of the first buffered frame
	alpha, lambda float64 // the telemetry the batch reports
	// A full-fidelity upload holds the renderer's own frames in frames. An
	// events-fidelity upload holds its frames packed in metas, 16 B each,
	// and builds them only for the length of a cloud call (blk) or of its
	// hooks; its frames slice stays empty. Either has the upload's capacity.
	frames []*video.Frame
	metas  []video.PackedMeta
	// blk is the block an events-fidelity batch is unpacked into while
	// cloudReceive has it in a cloud call; nil otherwise.
	blk *frameBlock
	// deliver is arrive and labeled is done, as method values taken once:
	// taking one allocates.
	deliver func(now float64)
	labeled func(cloud.BatchResult)
}

// uploadPools maps a capacity to the sync.Pool of free uploads that hold
// that many frames, one map for full-fidelity uploads and one for packed
// ones. Every System in the process shares them, so upload memory follows
// the batches being built and in flight rather than the fleet's size: a
// spare kept per device would hold a full-size buffer standing on each one.
// A batch starts in an upload of minUpload frames and moves to one four
// times larger, never past UploadFrames, whenever it fills, so most batches
// never move and few capacities exist.
var uploadPools [2]sync.Map

// minUpload is the capacity a batch starts in.
const minUpload = 4

// uploadPool returns the pool of free uploads that hold n frames, packed
// or not.
func uploadPool(n int, packed bool) *sync.Pool {
	pools := &uploadPools[0]
	if packed {
		pools = &uploadPools[1]
	}
	p, ok := pools.Load(n)
	if !ok {
		p, _ = pools.LoadOrStore(n, new(sync.Pool))
	}
	return p.(*sync.Pool)
}

// getUpload returns a free, empty upload that holds n frames, packed at
// events fidelity.
func getUpload(n int, packed bool) *upload {
	if u, ok := uploadPool(n, packed).Get().(*upload); ok {
		return u
	}
	u := new(upload)
	if packed {
		u.metas = make([]video.PackedMeta, 0, n)
	} else {
		u.frames = make([]*video.Frame, 0, n)
	}
	u.deliver = u.arrive
	u.labeled = u.done
	return u
}

// size returns the number of frames the upload holds; capacity the number
// it has room for. One of frames and metas is always empty.
func (u *upload) size() int     { return len(u.frames) + len(u.metas) }
func (u *upload) capacity() int { return cap(u.frames) + cap(u.metas) }

// packed reports whether the upload holds its frames packed.
func (u *upload) packed() bool { return cap(u.metas) > 0 }

// release gives the upload back to its pool. Nothing may read its frames
// afterwards.
func (u *upload) release() {
	clear(u.frames) // a pooled upload pins no renderer frame
	u.frames, u.metas, u.blk = u.frames[:0], u.metas[:0], nil
	u.sys = nil
	uploadPool(u.capacity(), u.packed()).Put(u)
}

// arrive runs when the upload reaches the cloud.
func (u *upload) arrive(now float64) { u.sys.cloudReceive(u, now) }

// done runs when the cloud has labeled the upload; the upload is free once
// the batch's hooks have run. A packed batch labeled inside its cloud call
// hands the hooks the frames the cloud read, and cloudReceive takes their
// block back; one labeled later is unpacked again for the hooks.
func (u *upload) done(batch cloud.BatchResult) {
	s, frames := u.sys, u.frames
	var own *frameBlock
	switch {
	case u.blk != nil:
		u.blk.delivered = true
		frames = u.blk.frames
	case u.packed():
		own = s.unpack(u.metas)
		frames = own.frames
	}
	s.onBatchLabeled(frames, u.alpha, u.lambda, batch)
	if own != nil {
		own.put()
	}
	u.release()
}

// frameBlock is scratch that a packed batch is unpacked into for the length
// of one cloud call or one run of its hooks. Blocks are pooled process-wide
// (blockPool): only the batches in a call hold one, so their memory follows
// the calls in progress, not the batches in flight.
type frameBlock struct {
	vals []video.Frame
	ptrs []*video.Frame // ptrs[i] is &vals[i], set once the block is made
	// frames is the batch unpacked last, ptrs[:n] for its n frames.
	frames []*video.Frame
	// delivered records that the batch's callback ran inside the call, which
	// released its upload.
	delivered bool
}

var blockPool sync.Pool

// unpack returns a block holding the frames that metas pack, taken from
// blockPool. The caller gives it back with put.
func (s *System) unpack(metas []video.PackedMeta) *frameBlock {
	b, _ := blockPool.Get().(*frameBlock)
	if b == nil {
		b = new(frameBlock)
	}
	if n := cap(metas); cap(b.vals) < n {
		b.vals = make([]video.Frame, n)
		b.ptrs = make([]*video.Frame, n)
		for i := range b.vals {
			b.ptrs[i] = &b.vals[i]
		}
	}
	for i, m := range metas {
		s.sparse.Unpack(&b.vals[i], m, s.dt)
	}
	b.frames = b.ptrs[:len(metas)]
	return b
}

// put gives the block back to blockPool. Nothing may read its frames
// afterwards: under shoggothdebug they are poisoned first, so a late read
// moves bytes.
func (b *frameBlock) put() {
	poisonFrames(b.vals)
	b.frames, b.delivered = nil, false
	blockPool.Put(b)
}

// buffer returns the upload the next sampled frame, captured at t, joins:
// a fresh one at a batch's first frame, else the current one, moved to a
// larger upload when it is full.
func (s *System) buffer(t float64) *upload {
	u := s.buf
	switch {
	case u == nil:
		u = getUpload(min(minUpload, s.cfg.UploadFrames), s.fleet)
		u.sys, u.first = s, t
	case u.size() == u.capacity():
		// A full upload holds fewer than UploadFrames frames: it would
		// have left otherwise.
		big := getUpload(min(4*u.capacity(), s.cfg.UploadFrames), s.fleet)
		big.sys, big.first = s, u.first
		big.frames = append(big.frames, u.frames...)
		big.metas = append(big.metas, u.metas...)
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
	return s.buf.size()
}

// bufferSample adds a rendered frame to the next upload (full fidelity).
func (s *System) bufferSample(f *video.Frame, t float64) {
	u := s.buffer(t)
	u.frames = append(u.frames, f)
	s.results.SampledFrames++
}

// bufferMeta adds sampled frame idx, captured at t = float64(idx)·dt, to
// the next upload as packed sparse metadata (events fidelity): the analytic
// cloud never reads proposals.
func (s *System) bufferMeta(idx int, t float64) {
	u := s.buffer(t)
	u.metas = append(u.metas, s.sparse.Pack(idx, t))
	s.results.SampledFrames++
}

// flushDue reports whether the next upload leaves at frame time t: its
// buffer is full, or its first frame has waited UploadMaxWaitSec.
func (s *System) flushDue(t float64) bool {
	u := s.buf
	return u != nil && (u.size() >= s.cfg.UploadFrames || t-u.first >= s.cfg.UploadMaxWaitSec)
}
