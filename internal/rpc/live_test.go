package rpc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"shoggoth"
	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/detect"
	"shoggoth/internal/rpc"
	"shoggoth/internal/sim"
)

// TestLiveEdgeMatchesSession is DESIGN.md §8's sim/live parity contract:
// a core.System on the rpc backend, against a stock live cloud server on
// loopback, gives Results that encode to the bytes a simulator Session of
// the same Config gives, for every registered strategy. The server is built
// for another profile and seed than the run's, and the run's controller and
// labeler are not the defaults, so the bytes match only if the device's
// registration builds its teacher, labeler and controller. Edge-Only and
// Cloud-Only never reach the backend past registering (Cloud-Only labels
// through System.Teacher, on the edge), so the server must see no upload
// from them.
func TestLiveEdgeMatchesSession(t *testing.T) {
	p, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	other, err := shoggoth.ProfileByName(shoggoth.ProfileKITTI)
	if err != nil {
		t.Fatal(err)
	}
	student := detect.DefaultPretrainedStudent(p)
	for _, kind := range shoggoth.StrategyKinds() {
		cfg := shoggoth.NewConfig(kind, p, shoggoth.WithSeed(1), shoggoth.WithCycles(0.5))
		cfg.DeviceID = "edge-1"
		cfg.Pretrained = student
		cfg.Controller.PhiTarget, cfg.Controller.InitialRate = 0.9, 0.6
		cfg.Labeler.TeacherLatencySec = 0.05
		if cfg.Controller == cloud.DefaultControllerConfig() || cfg.Labeler == cloud.DefaultLabelerConfig() {
			t.Fatal("the run's controller and labeler must differ from the server's defaults")
		}
		t.Run(kind.String(), func(t *testing.T) {
			sess, err := shoggoth.NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sess.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, uploads := runLive(t, cfg, other, 7)
			wantJSON, _ := json.Marshal(want) // Results always encode
			gotJSON, _ := json.Marshal(got)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("live Results differ from the Session's:\n live %s\n  sim %s", gotJSON, wantJSON)
			}
			switch kind {
			case shoggoth.EdgeOnly, shoggoth.CloudOnly:
				if uploads != 0 {
					t.Fatalf("%s uploaded %d batches; it never reaches the backend", kind, uploads)
				}
			default:
				if uploads != int64(got.CloudBatches) || got.CloudDroppedBatches != 0 {
					t.Fatalf("%d uploads for %d cloud batches and %d drops", uploads, got.CloudBatches, got.CloudDroppedBatches)
				}
			}
			if kind == shoggoth.Shoggoth && (got.CloudBatches < 10 || len(got.SessionTimes) == 0) {
				t.Fatalf("Shoggoth ran %d cloud batches and applied %d training sessions; the check needs at least 10 and 1",
					got.CloudBatches, len(got.SessionTimes))
			}
		})
	}
}

// runLive runs cfg as shoggoth-edge does, against a fresh in-process stock
// cloud built for profile p and seed, and returns the Results and the
// number of label uploads the cloud answered.
func runLive(t *testing.T, cfg core.Config, p *shoggoth.Profile, seed uint64) (*core.Results, int64) {
	t.Helper()
	server := rpc.NewServerOpts(p, seed, rpc.ServerOptions{})
	var uploads atomic.Int64
	handler := server.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/label" {
			uploads.Add(1)
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	sched := sim.NewScheduler()
	be, err := rpc.NewBackend(srv.URL, cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemOpts(&cfg, core.SystemOptions{Scheduler: sched, Cloud: be})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Err(); err != nil {
		t.Fatal(err)
	}
	return res, uploads.Load()
}
