package core

import (
	"math"
	"reflect"
	"testing"

	"shoggoth/internal/cloud"
	"shoggoth/internal/detect"
	"shoggoth/internal/netsim"
	"shoggoth/internal/video"
)

// runEvents drives an events-fidelity deployment as the fleet engine does,
// through NextEventTime and AdvanceTo, until nothing is due before limit.
func runEvents(s *System, limit float64) {
	for {
		at, ok := s.NextEventTime()
		if !ok || at >= limit {
			return
		}
		s.AdvanceTo(limit)
	}
}

// lifetimeDevice wraps a deployment's cloud registration and holds every
// upload to its lifetime: the frames the cloud is handed are intact sparse
// metadata, and the batch's hooks see frames equal to them when its
// callback runs — however long the batch waited, and whatever the device
// uploaded meanwhile. The cloud itself may read the frames it is handed
// only during Enqueue: once Enqueue returns with the batch still waiting,
// the wrapper overwrites them with an impossible frame, which a later read
// would carry into the run's results.
type lifetimeDevice struct {
	cloud.Device
	t      *testing.T
	sparse *video.SparseStream
	dt     float64
	// labeled is the batch whose callback is running: the frames as the
	// cloud was handed them.
	labeled  []video.Frame
	uploaded int
	waited   int // batches whose frames were overwritten while they waited
}

// intact fails the test unless f is the sparse metadata of a camera frame.
func (d *lifetimeDevice) intact(where string, f *video.Frame) {
	d.t.Helper()
	var want video.Frame
	if f.Index >= 0 {
		d.sparse.MetaInto(&want, f.Index, float64(f.Index)*d.dt)
	}
	if f.Index < 0 || math.Float64bits(f.Time) != math.Float64bits(want.Time) || !reflect.DeepEqual(*f, want) {
		d.t.Fatalf("%s: frame %+v is not the metadata of a camera frame", where, *f)
	}
}

func (d *lifetimeDevice) Enqueue(frames []*video.Frame, now float64, cb func(cloud.BatchResult)) bool {
	sent := make([]video.Frame, len(frames))
	for i, f := range frames {
		d.intact("enqueue", f)
		sent[i] = *f
	}
	d.uploaded++
	called := false
	ok := d.Device.Enqueue(frames, now, func(res cloud.BatchResult) {
		called = true
		d.labeled = sent
		cb(res)
		d.labeled = nil
	})
	if ok && !called {
		d.waited++
		for _, f := range frames {
			f.Index, f.Time, f.DomainID, f.Complexity = -1, math.NaN(), -1, math.NaN()
		}
	}
	return ok
}

// lifetimeStrategy wraps the deployment's strategy: OnCloudBatch must see
// the frames that were uploaded, and every label deposit must count the
// labeled batch's frames when it fires, after the upload has been reused.
type lifetimeStrategy struct {
	Strategy
	dev      *lifetimeDevice
	sys      *System
	count    int // frames deposited toward the next training batch, as the strategy should count them
	deposits int
}

func (st *lifetimeStrategy) OnCloudBatch(frames []*video.Frame, labels [][]detect.TeacherLabel, done float64) {
	d, sys := st.dev, st.sys
	if len(frames) != len(d.labeled) {
		d.t.Fatalf("OnCloudBatch got %d frames of a %d-frame batch", len(frames), len(d.labeled))
	}
	for i, f := range frames {
		d.intact("OnCloudBatch", f)
		if !reflect.DeepEqual(*f, d.labeled[i]) {
			d.t.Fatalf("OnCloudBatch frame %d is %+v, the upload sent %+v", i, *f, d.labeled[i])
		}
	}
	st.Strategy.OnCloudBatch(frames, labels, done)
	// The deposit lands at this time; an event posted after it at the same
	// time runs after it.
	lb := netsim.LabelSetBytes(sys.AnalyticRegions(frames))
	at := done + sys.cfg.DownlinkTransfer(lb, done)
	n := len(frames)
	sys.sched.At(at, func(float64) {
		st.deposits++
		if st.count += n; st.count >= sys.cfg.BatchFrames {
			st.count = 0
		}
		if sys.batchFrames != st.count {
			d.t.Fatalf("deposit %d: %d frames toward the next training batch, want %d", st.deposits, sys.batchFrames, st.count)
		}
	})
}

// TestUploadLifetime holds the upload cycle to its ownership contract: the
// strategy hook sees frames equal to the uploaded ones, the cloud reads an
// analytic batch's frames only during Enqueue, and the events-fidelity label
// deposit, which fires later, reads nothing of the upload. On an
// arrival-order tier the callback runs inside Enqueue; on a wfq tier with a
// slow teacher each batch waits while the device samples, flushes and
// reuses uploads, and the run must still match one whose frames nobody
// overwrote.
func TestUploadLifetime(t *testing.T) {
	for _, tc := range []struct {
		name    string
		policy  string
		latency float64 // teacher seconds a frame
	}{
		{"fifo", cloud.PolicyFIFO, 0},
		{"wfq-slow-teacher", cloud.PolicyWFQ, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NewConfig(Shoggoth, video.DETRACProfile())
			cfg.DurationSec = 3600
			cfg.Fidelity = FidelityEvents
			cfg.Cloud.Service.Policy = tc.policy
			if tc.latency > 0 {
				cfg.Labeler.TeacherLatencySec = tc.latency
			}
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dev := &lifetimeDevice{Device: s.cloudDev, t: t, sparse: s.sparse, dt: s.dt}
			st := &lifetimeStrategy{Strategy: s.strategy, dev: dev, sys: s}
			s.cloudDev, s.strategy = dev, st
			runEvents(s, cfg.DurationSec)
			r := s.Finish()
			if r.CloudBatches < 20 || st.deposits < 20 || r.Sessions == 0 {
				t.Fatalf("%d batches labeled, %d deposits, %d sessions: the run proves nothing", r.CloudBatches, st.deposits, r.Sessions)
			}
			if tc.latency > 0 && (r.CloudQueueDelayMaxSec < 10 || dev.waited < 20) {
				t.Fatalf("longest queueing delay %.1f s, %d batches waited: too few waited while the device uploaded more", r.CloudQueueDelayMaxSec, dev.waited)
			}
			plain, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runEvents(plain, cfg.DurationSec)
			if want := plain.Finish(); !reflect.DeepEqual(r, want) {
				t.Fatal("the wrapped run's results differ from a plain run's: the cloud read frames after Enqueue returned")
			}
			t.Logf("%d uploads, %d waited, %d labeled, %d deposits, %d sessions, max queueing %.1f s",
				dev.uploaded, dev.waited, r.CloudBatches, st.deposits, r.Sessions, r.CloudQueueDelayMaxSec)
		})
	}
}
