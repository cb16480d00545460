package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shoggoth/internal/cloud"
	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

func newTestServer(t *testing.T) (*httptest.Server, *video.Profile) {
	t.Helper()
	p := video.DETRACProfile()
	srv := httptest.NewServer(NewServerOpts(p, 7, ServerOptions{}).Handler())
	t.Cleanup(srv.Close)
	return srv, p
}

func collectFrames(p *video.Profile, seed uint64, n, stride int) []video.Frame {
	stream := video.NewStream(p, seed)
	var out []video.Frame
	for i := 0; len(out) < n; i++ {
		f := stream.Next()
		if i%stride == 0 {
			out = append(out, *f)
		}
	}
	return out
}

func TestLabelRoundTrip(t *testing.T) {
	srv, p := newTestServer(t)
	client := NewClient(srv.URL, "edge-1")
	frames := collectFrames(p, 1, 5, 15)

	resp, err := client.Label(frames, 0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Labels) != len(frames) {
		t.Fatalf("want %d label sets, got %d", len(frames), len(resp.Labels))
	}
	for i, ls := range resp.Labels {
		if len(ls) != len(frames[i].Proposals) {
			t.Fatalf("frame %d: %d labels for %d proposals", i, len(ls), len(frames[i].Proposals))
		}
	}
	cfg := cloud.DefaultControllerConfig() // an unregistered device's
	if resp.NewRate < cfg.RMin || resp.NewRate > cfg.RMax {
		t.Fatalf("rate out of bounds: %v", resp.NewRate)
	}
}

func TestLabelsUsableForTraining(t *testing.T) {
	srv, p := newTestServer(t)
	client := NewClient(srv.URL, "edge-1")
	frames := collectFrames(p, 2, 30, 15)
	resp, err := client.Label(frames, 0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	student := detect.NewStudent(p.FeatureDim(), p.NumClasses(), rng)
	trainer := detect.NewTrainer(student, detect.DefaultTrainerConfig(), rng)
	var batch []detect.LabeledRegion
	for i := range frames {
		batch = append(batch, detect.BuildTrainingBatch(&frames[i], resp.Labels[i], p.BackgroundClass())...)
	}
	stats := trainer.RunSession(batch)
	if stats.Steps == 0 {
		t.Fatal("training session should run on RPC-delivered labels")
	}
}

func TestPhiContinuityAcrossRequests(t *testing.T) {
	srv, p := newTestServer(t)
	client := NewClient(srv.URL, "edge-1")
	frames := collectFrames(p, 3, 10, 15)

	// First call primes the labeler; second call should produce a non-zero
	// φ since it compares against the previous request's last frame.
	if _, err := client.Label(frames[:5], 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Label(frames[5:], 0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if resp.PhiMean <= 0 {
		t.Fatalf("expected positive φ on continuation, got %v", resp.PhiMean)
	}
}

func TestPerDeviceIsolation(t *testing.T) {
	srv, p := newTestServer(t)
	a := NewClient(srv.URL, "edge-a")
	bcl := NewClient(srv.URL, "edge-b")
	frames := collectFrames(p, 4, 10, 15)

	// Drive device A's controller up with poor accuracy, device B stays
	// accurate; rates must diverge.
	for i := 0; i < 4; i++ {
		if _, err := a.Label(frames, 0.1, 0.5); err != nil {
			t.Fatal(err)
		}
		if _, err := bcl.Label(frames, 1.0, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	sa, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := bcl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if sa.Rate <= sb.Rate {
		t.Fatalf("inaccurate device should sample faster: a=%v b=%v", sa.Rate, sb.Rate)
	}
	if sa.FramesLabeled != sb.FramesLabeled {
		t.Fatalf("both devices labeled the same count: %d vs %d", sa.FramesLabeled, sb.FramesLabeled)
	}
}

func TestMissingDeviceIDRejected(t *testing.T) {
	srv, p := newTestServer(t)
	client := NewClient(srv.URL, "")
	frames := collectFrames(p, 5, 2, 15)
	if _, err := client.Label(frames, 0.9, 0.5); err == nil {
		t.Fatal("expected error for missing device id")
	}
}

// TestStatusUnknownDeviceNotFound: status is a read-only lookup. Probing an
// id that never labeled must 404 and must not instantiate per-device state
// (teacher + controller) — arbitrary status scans used to bloat the server.
func TestStatusUnknownDeviceNotFound(t *testing.T) {
	p := video.DETRACProfile()
	server := NewServerOpts(p, 7, ServerOptions{})
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)

	for i := 0; i < 5; i++ {
		client := NewClient(srv.URL, fmt.Sprintf("probe-%d", i))
		if _, err := client.Status(); err == nil {
			t.Fatal("status for an unregistered device must fail")
		} else if !strings.Contains(err.Error(), "404") {
			t.Fatalf("want a 404, got: %v", err)
		}
	}
	server.mu.Lock()
	n := len(server.devices)
	server.mu.Unlock()
	if n != 0 {
		t.Fatalf("status probes created %d device states; status must be read-only", n)
	}
	if server.tier.Devices() != 0 {
		t.Fatalf("status probes registered %d devices on the engine", server.tier.Devices())
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	srv, p := newTestServer(t)
	client := NewClient(srv.URL, "edge-empty")

	// Register the device with one real batch so status has state to read.
	if _, err := client.Label(collectFrames(p, 3, 5, 15), 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	before, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Label(nil, 0.9, 0.5); err == nil {
		t.Fatal("empty Frames batch must be rejected with 400")
	}
	after, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	// The rejected batch must not have reached the controller: φ̄=0 would
	// have yanked the rate toward RMin.
	if after.Rate != before.Rate {
		t.Fatalf("empty batch moved the rate: %v -> %v", before.Rate, after.Rate)
	}
	if after.FramesLabeled != before.FramesLabeled {
		t.Fatalf("empty batch labeled frames: %d -> %d", before.FramesLabeled, after.FramesLabeled)
	}
}

// TestNonFiniteTelemetryRejected: NaN/Inf α or λ̄ from a misbehaving edge is
// a protocol error — rejected at the boundary, never fed to the controller.
func TestNonFiniteTelemetryRejected(t *testing.T) {
	srv, p := newTestServer(t)
	client := NewClient(srv.URL, "edge-nan")
	frames := collectFrames(p, 6, 5, 15)

	if _, err := client.Label(frames, 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	before, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]float64{
		{math.NaN(), 0.5}, {0.9, math.NaN()},
		{math.Inf(1), 0.5}, {0.9, math.Inf(-1)},
	} {
		if _, err := client.Label(frames, bad[0], bad[1]); err == nil {
			t.Fatalf("non-finite telemetry %v must be rejected", bad)
		}
	}
	after, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if after.Rate != before.Rate {
		t.Fatalf("non-finite telemetry moved the rate: %v -> %v", before.Rate, after.Rate)
	}
}

// TestQueueCapBackpressure: with the engine's QueueCap the live path sees
// exactly the simulation's admission control — a full queue answers 429
// with the server's Retry-After hint, and the client surfaces it as
// ErrBackpressure.
func TestQueueCapBackpressure(t *testing.T) {
	p := video.DETRACProfile()
	srv := httptest.NewServer(NewServerOpts(p, 7, ServerOptions{QueueCap: 1}).Handler())
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, "edge-bp")
	frames := collectFrames(p, 7, 20, 15)

	// The first batch occupies the single queue slot: 20 frames × 45 ms of
	// modeled teacher time keep it outstanding for ~0.9 s of real time.
	if _, err := client.Label(frames, 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	_, err := client.Label(frames, 0.9, 0.5)
	if err == nil {
		t.Fatal("second batch must hit the full queue")
	}
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want ErrBackpressure, got: %v", err)
	}
	body := AppendLabelRequest(nil, &LabelRequest{DeviceID: "edge-bp", Frames: frames, Alpha: 0.9, Lambda: 0.5})
	reply, err := http.Post(srv.URL+"/v1/label", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply.Body.Close()
	if reply.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third batch: %s, want 429", reply.Status)
	}
	if secs, err := strconv.Atoi(reply.Header.Get("Retry-After")); err != nil || secs <= 0 {
		t.Fatalf("backpressure must carry a Retry-After hint in whole seconds, got %q", reply.Header.Get("Retry-After"))
	}

	// The drop is visible in the engine's queue statistics.
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queue.DroppedBatches != 2 || st.Cloud.DroppedBatches != 2 {
		t.Fatalf("drop not counted: device %+v cloud %+v", st.Queue, st.Cloud)
	}

	// Once the modeled service completes, the queue admits again.
	time.Sleep(time.Duration(float64(len(frames))*0.045*float64(time.Second)) + 100*time.Millisecond)
	if _, err := client.Label(frames, 0.9, 0.5); err != nil {
		t.Fatalf("queue should have drained: %v", err)
	}
}

// TestUnknownDeviceRejectedBeforeRegistration: an unknown device hitting a
// full queue is turned away BEFORE its teacher/controller state is built —
// unique-id spam against an overloaded cloud must not grow the registry.
func TestUnknownDeviceRejectedBeforeRegistration(t *testing.T) {
	p := video.DETRACProfile()
	server := NewServerOpts(p, 7, ServerOptions{QueueCap: 1})
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)
	frames := collectFrames(p, 7, 20, 15)

	if _, err := NewClient(srv.URL, "edge-known").Label(frames, 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, err := NewClient(srv.URL, fmt.Sprintf("edge-spam-%d", i)).Label(frames, 0.9, 0.5)
		if !errors.Is(err, ErrBackpressure) {
			t.Fatalf("unknown device at a full queue must get backpressure, got: %v", err)
		}
	}
	server.mu.Lock()
	n := len(server.devices)
	server.mu.Unlock()
	if n != 1 {
		t.Fatalf("rejected unknown devices grew the registry to %d entries, want 1", n)
	}
	if server.tier.Devices() != 1 {
		t.Fatalf("rejected unknown devices registered %d engine devices, want 1", server.tier.Devices())
	}
}

// TestStatusReportsQueueStats: /v1/status carries the engine's per-device
// and aggregate queue statistics, and the aggregate covers every device.
func TestStatusReportsQueueStats(t *testing.T) {
	srv, p := newTestServer(t)
	a := NewClient(srv.URL, "edge-qa")
	b := NewClient(srv.URL, "edge-qb")
	frames := collectFrames(p, 8, 10, 15)

	for i := 0; i < 2; i++ {
		if _, err := a.Label(frames, 0.9, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Label(frames, 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	sa, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	if sa.Queue.Batches != 2 {
		t.Fatalf("device a served %d batches, want 2", sa.Queue.Batches)
	}
	if sa.Queue.BusySeconds <= 0 {
		t.Fatal("device busy seconds must accumulate")
	}
	if sa.Cloud.Batches != 3 {
		t.Fatalf("aggregate served %d batches, want 3", sa.Cloud.Batches)
	}
	if sa.Cloud.BusySeconds < sa.Queue.BusySeconds {
		t.Fatal("aggregate busy time cannot be below one device's")
	}
}

// TestConcurrentMultiDeviceLabel hammers one server from many devices at
// once (run under -race in CI): per-device locking must keep every device's
// labeled counter exact and its φ stream self-consistent while unrelated
// devices label in parallel.
func TestConcurrentMultiDeviceLabel(t *testing.T) {
	srv, p := newTestServer(t)
	frames := collectFrames(p, 9, 6, 15)

	const devices, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			client := NewClient(srv.URL, fmt.Sprintf("edge-%d", d))
			for r := 0; r < rounds; r++ {
				resp, err := client.Label(frames, 0.9, 0.5)
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Labels) != len(frames) {
					errs <- fmt.Errorf("device %d: %d label sets for %d frames", d, len(resp.Labels), len(frames))
					return
				}
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for d := 0; d < devices; d++ {
		client := NewClient(srv.URL, fmt.Sprintf("edge-%d", d))
		st, err := client.Status()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(rounds * len(frames)); st.FramesLabeled != want {
			t.Fatalf("device %d labeled %d frames, want %d", d, st.FramesLabeled, want)
		}
	}
}

// TestClientTimeout: a hung cloud must surface as an error instead of
// stalling the edge loop forever.
func TestClientTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	t.Cleanup(func() { close(block); srv.Close() })

	client := NewClient(srv.URL, "edge-1")
	if client.HTTP == http.DefaultClient {
		t.Fatal("client must not share http.DefaultClient")
	}
	if client.HTTP.Timeout != DefaultTimeout {
		t.Fatalf("want default timeout %v, got %v", DefaultTimeout, client.HTTP.Timeout)
	}
	client.HTTP.Timeout = 50 * time.Millisecond

	p := video.DETRACProfile()
	frames := collectFrames(p, 11, 1, 15)
	start := time.Now()
	_, err := client.Label(frames, 0.9, 0.5)
	if err == nil {
		t.Fatal("expected a deadline error from the hung cloud")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error should surface the deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; the edge loop would have stalled", elapsed)
	}
	if _, err := client.Status(); err == nil {
		t.Fatal("status against a hung cloud must also time out")
	}
}
