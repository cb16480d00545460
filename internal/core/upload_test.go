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
// metadata, and they are still exactly those frames when the batch's
// callback runs — however long the batch waited, and whatever the device
// uploaded meanwhile.
type lifetimeDevice struct {
	cloud.Device
	t      *testing.T
	sparse *video.SparseStream
	dt     float64
	// labeled is the batch whose callback is running: the frames as the
	// cloud was handed them.
	labeled  []video.Frame
	uploaded int
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
	return d.Device.Enqueue(frames, now, func(res cloud.BatchResult) {
		if len(frames) != len(sent) {
			d.t.Fatalf("labeled batch holds %d frames, %d were uploaded", len(frames), len(sent))
		}
		for i, f := range frames {
			if !reflect.DeepEqual(*f, sent[i]) {
				d.t.Fatalf("labeled frame %d is %+v, the upload sent %+v: the upload was reused before its callback", i, *f, sent[i])
			}
		}
		d.labeled = sent
		cb(res)
		d.labeled = nil
	})
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

// TestUploadLifetime holds the upload cycle to its ownership contract:
// an upload is reused only once its labeled callback has returned or the
// cloud dropped it, and the events-fidelity label deposit, which fires
// later, reads nothing of it. On an arrival-order tier the callback runs
// inside Enqueue; on a wfq tier with a slow teacher each batch waits while
// the device samples, flushes and reuses uploads.
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
			if tc.latency > 0 && r.CloudQueueDelayMaxSec < 10 {
				t.Fatalf("longest queueing delay %.1f s: no batch waited while the device uploaded more", r.CloudQueueDelayMaxSec)
			}
			t.Logf("%d uploads, %d labeled, %d deposits, %d sessions, max queueing %.1f s",
				dev.uploaded, r.CloudBatches, st.deposits, r.Sessions, r.CloudQueueDelayMaxSec)
		})
	}
}
