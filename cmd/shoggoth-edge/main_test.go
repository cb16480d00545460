package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shoggoth"
	"shoggoth/internal/rpc"
	"shoggoth/internal/runspec"
)

// TestBackpressuredCloudDropsBatchesAndPlaysOn: a cloud that takes the
// registration and answers every upload with 429 costs the edge its
// batches, which Results counts as dropped, and the run still plays the
// whole stream.
func TestBackpressuredCloudDropsBatchesAndPlaysOn(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/register" {
			w.WriteHeader(http.StatusCreated)
			return
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "labeling queue full", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cloud", srv.URL, "-set", "duration=120"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var res shoggoth.Results
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("%v in %q", err, stdout.String())
	}
	if res.CloudDroppedBatches == 0 || res.CloudBatches != 0 || res.Sessions != 0 {
		t.Fatalf("%d batches served, %d dropped, %d sessions: want every upload dropped and nothing trained",
			res.CloudBatches, res.CloudDroppedBatches, res.Sessions)
	}
	p, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(120 * p.FPS); res.FramesTotal != want || res.Duration != 120 {
		t.Fatalf("played %d frames over %v s, want %d over 120 s", res.FramesTotal, res.Duration, want)
	}
}

// TestGoneCloudFailsNamingURL: a cloud that is not there ends the run with
// an error naming its URL, well within the client's deadline, and no
// Results.
func TestGoneCloudFailsNamingURL(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	var stdout, stderr bytes.Buffer
	start := time.Now()
	if code := run([]string{"-cloud", url, "-set", "duration=120"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, stderr.String())
	}
	if elapsed := time.Since(start); elapsed >= rpc.DefaultTimeout {
		t.Fatalf("took %v, the client deadline is %v", elapsed, rpc.DefaultTimeout)
	}
	if !strings.Contains(stderr.String(), url) {
		t.Fatalf("error does not name %s: %q", url, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("a failed run printed %q", stdout.String())
	}
}

// TestEdgeRefusesFleetFidelities: events and sampled fidelity upload no
// frames a live cloud could label; the edge says so, before it contacts
// the cloud and without a panic.
func TestEdgeRefusesFleetFidelities(t *testing.T) {
	p, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	for _, fidelity := range []shoggoth.Fidelity{shoggoth.FidelityEvents, shoggoth.FidelitySampled} {
		cfg := shoggoth.NewConfig(shoggoth.Shoggoth, p, shoggoth.WithFidelity(fidelity), shoggoth.WithDuration(60))
		cfg.DeviceID = "edge-1"
		if res, err := live(cfg, "http://127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "fidelity") {
			t.Fatalf("fidelity %s: results %v, error %v", fidelity, res, err)
		}
	}
}

// TestEdgeRejectsBadNames: an unknown strategy or profile is an error that
// names it.
func TestEdgeRejectsBadNames(t *testing.T) {
	for _, args := range [][]string{{"-set", "strategy=bogus"}, {"-set", "profile=bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "bogus") {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr.String())
		}
	}
}

// TestEdgeRunsOneFullFidelityDevice: a spec that resolves to anything but
// one full-fidelity device exits 1 naming the key, before it contacts the
// cloud.
func TestEdgeRunsOneFullFidelityDevice(t *testing.T) {
	for _, tc := range []struct {
		sets []string
		key  string
	}{
		{[]string{"strategy=all"}, "spec key strategy"},
		{[]string{"devices=2"}, "spec key devices"},
		{[]string{"scenario=rush-hour"}, "spec key scenario"},
		{[]string{"fidelity=events"}, "spec key fidelity"},
		{[]string{"devices=2", "fidelity=sampled"}, "spec key devices"},
		{[]string{"exp=table1"}, "spec key exp"},
	} {
		args := []string{"-cloud", "http://127.0.0.1:1"}
		for _, kv := range tc.sets {
			args = append(args, "-set", kv)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), tc.key) || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %d bytes; want exit 1 naming %q", tc.sets, code, stderr.String(), stdout.Len(), tc.key)
		}
	}
}

// TestEdgeMatchesSimulatorOnStockCloud: the edge against a stock cloud
// built for another profile and seed prints the Results the simulator
// gives for the same spec and device id, byte for byte: the device's
// registration, not the server's flags, builds its teacher and controller.
func TestEdgeMatchesSimulatorOnStockCloud(t *testing.T) {
	p, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rpc.NewServerOpts(p, 1, rpc.ServerOptions{}).Handler())
	defer srv.Close()
	sets := []string{"strategy=shoggoth", "profile=kitti", "seed=7", "cycles=0.5"}
	args := []string{"-cloud", srv.URL, "-device", "edge-7"}
	for _, kv := range sets {
		args = append(args, "-set", kv)
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}

	spec, err := runspec.Decode([]byte("{}"), sets)
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := spec.Configs(r)
	if err != nil {
		t.Fatal(err)
	}
	cfgs[0].DeviceID = "edge-7"
	sess, err := shoggoth.NewSession(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != buf.String() {
		t.Fatalf("the edge printed\n%s\nthe simulator gives\n%s", stdout.String(), buf.String())
	}
	if want.CloudBatches < 10 {
		t.Fatalf("%d cloud batches: the check needs at least 10 round trips", want.CloudBatches)
	}
}
