package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"shoggoth"
	"shoggoth/internal/core"
	"shoggoth/internal/metrics"
	"shoggoth/internal/rpc"
	"shoggoth/internal/video"
)

// sizes fixes how much work each workload does. They are constants of the
// benchmark, not flags: fullSizes is what every reported number is measured
// at, tinySizes exists so the package test can exercise every code path in
// seconds.
type sizes struct {
	full         bool    // run the full-size output checks (golden bytes, mAP ordering, drop share)
	gridProfiles int     // table1_grid: leading stock profiles in the grid (Table I has all three)
	gridCycles   float64 // table1_grid: scenario-script passes per session
	fleetDevices int     // fleet_*: devices on the shared tier
	fleetCycles  float64 // fleet_*: rush-hour script passes (0.4 = 288 virtual s)
	liveBatches  int     // live_loopback: 20-frame batches per client, warm-up included
	liveWarmup   int     // live_loopback: leading batches per client left untimed
	liveCycle    int     // live_loopback: distinct pre-generated batches each client cycles through
	setupReps    int     // untraced set-ups per run at least; setup_s is their median
	setupSec     float64 // a set-up cheaper than this is repeated until this many seconds have passed
	unitBatches  int     // unit costs: timed batches per row
	unitDiv      int     // unit costs: divisor of each row's per-batch op count
	calRounds    int     // host calibration: rounds per calibration
	calDiv       int     // host calibration: divisor of each kernel's iteration count
}

var (
	fullSizes = sizes{full: true, gridProfiles: 3, gridCycles: 1, fleetDevices: 20000, fleetCycles: 0.4,
		liveBatches: 10000, liveWarmup: 500, liveCycle: 50, setupReps: 2, setupSec: 3, unitBatches: 10, unitDiv: 1, calRounds: 6, calDiv: 1}
	tinySizes = sizes{gridProfiles: 1, gridCycles: 0.02, fleetDevices: 200, fleetCycles: 0.05,
		liveBatches: 60, liveWarmup: 10, liveCycle: 3, setupReps: 1, setupSec: 0.05, unitBatches: 2, unitDiv: 200, calRounds: 1, calDiv: 50}
)

const (
	liveClients     = 2  // closed-loop edges; nproc is 2
	liveBatchFrames = 20 // frames per upload
	liveFrameStride = 16 // every 16th stream frame is "sampled"
)

// outcome is what one pass of a workload produced.
type outcome struct {
	wall, cpu float64 // the timed region only

	// attempted/failed count operations of the program under test: sessions,
	// devices or live requests that did not complete. A batch the simulated
	// cloud drops is a modeled event, not a failed operation; it is counted
	// in offered/refused, which fail_share and served_share report.
	attempted, failed int64
	offered, refused  float64

	// digest fingerprints every deterministic output of the pass; equal
	// inputs must give equal digests, pass to pass and run to run.
	digest string
	// extra are the end-to-end values only this workload has (label_rtt_*,
	// map50_gain_pts, ...).
	extra map[string]float64
	// counts are the per-layer count rows. inexact names the ones that
	// depend on host timing (live queue delays) and may differ run to run.
	counts  map[string]float64
	inexact map[string]bool
	// layer are per-layer timings only a traced pass can produce.
	layer map[string]float64
	// problems lists failed output checks.
	problems []string
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// instance is one set-up workload: run may be called repeatedly and each
// call is one pass over the same inputs.
type instance interface {
	run(tr *tracer) (*outcome, error)
	close()
}

// setupArgs is what a workload's set-up may use. cache is nil on a measured
// run (set-up then pays for pretraining); tr is nil on an untraced one.
type setupArgs struct {
	root  string
	seed  uint64
	sz    sizes
	cache *shoggoth.StudentCache
	tr    *tracer
}

var workloads = map[string]func(setupArgs) (instance, error){
	"table1_grid": setupGrid,
	"fleet_fifo":  func(a setupArgs) (instance, error) { return setupFleet(a, cloudMode{}) },
	"fleet_policy": func(a setupArgs) (instance, error) {
		return setupFleet(a, cloudMode{policy: "wfq", router: "least-loaded", coalesce: 4})
	},
	"live_loopback": setupLive,
}

// timed runs fn and returns its wall and CPU seconds. A collection first
// keeps one pass's garbage out of the next pass's timed region.
func timed(fn func() error) (wall, cpu float64, err error) {
	runtime.GC()
	c0, t0 := cpuSeconds(), now()
	err = fn()
	return now() - t0, cpuSeconds() - c0, err
}

func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

// ---------------------------------------------------------------- table1_grid

//go:embed expected/table1_paper.json
var paperTable1JSON []byte

type gridInstance struct {
	root     string
	seed     uint64
	sz       sizes
	cache    *shoggoth.StudentCache
	profiles []*shoggoth.Profile
	cfgs     []shoggoth.Config
}

// setupGrid pretrains one student per profile and builds the Table I grid:
// 3 profiles x 5 strategies, full fidelity, exact tier. A nil cache means a
// cold one, which is what setup_s must time; the test shares a warm one.
func setupGrid(a setupArgs) (instance, error) {
	root, seed, sz, cache, tr := a.root, a.seed, a.sz, a.cache, a.tr
	if cache == nil {
		cache = &shoggoth.StudentCache{}
	}
	profiles := shoggoth.Profiles()[:sz.gridProfiles]
	id := tr.begin("setup.pretrain")
	for _, p := range profiles {
		cache.Get(p)
	}
	tr.end(id)
	id = tr.begin("setup.configs")
	cfgs := shoggoth.Grid(profiles, shoggoth.StrategyKinds(),
		shoggoth.WithSeed(seed), shoggoth.WithCycles(sz.gridCycles))
	tr.end(id)
	return &gridInstance{root: root, seed: seed, sz: sz, cache: cache, profiles: profiles, cfgs: cfgs}, nil
}

func (g *gridInstance) close() {}

func (g *gridInstance) run(tr *tracer) (*outcome, error) {
	o := &outcome{attempted: int64(len(g.cfgs))}
	var perf shoggoth.PerfCounters
	var results []*shoggoth.Results
	var busy float64
	var err error
	if tr == nil {
		fleet := &shoggoth.Fleet{Workers: 1, Cache: g.cache, Perf: &perf}
		o.wall, o.cpu, err = timed(func() error {
			results, err = fleet.Run(context.Background(), g.cfgs)
			return err
		})
	} else {
		// The traced pass is Fleet.Run{Workers:1} unrolled, so that session
		// construction, the frame loop and the result fold are separate spans.
		o.wall, o.cpu, err = timed(func() error {
			for _, cfg := range g.cfgs {
				if d, ok := core.Lookup(cfg.Kind); ok && d.Traits.Student {
					cfg.Pretrained = g.cache.Get(cfg.Profile)
				}
				cfg.PerfClock = now
				id := tr.begin("core.new_system")
				sess, err := shoggoth.NewSession(cfg)
				tr.end(id)
				if err != nil {
					return err
				}
				id = tr.begin("core.step_loop")
				for sess.Step() {
				}
				tr.end(id)
				id = tr.begin("core.finish")
				results = append(results, sess.Results())
				tr.end(id)
				perf.Add(sess.System().Workspace().Perf)
				busy += sess.System().CloudService().Stats().BusySeconds
			}
			return nil
		})
		o.layer = map[string]float64{
			"core.new_system_s": tr.total("core.new_system"),
			"core.step_loop_s":  tr.total("core.step_loop"),
			"core.finish_s":     tr.total("core.finish"),
			"detect.infer_s":    perf.InferSeconds,
			"detect.train_s":    perf.TrainSeconds,
		}
	}
	if err != nil {
		return nil, err
	}
	if o.digest, err = digestOf(results); err != nil {
		return nil, err
	}

	o.counts = map[string]float64{
		"detect.infer_frames":   float64(perf.InferFrames),
		"detect.train_steps":    float64(perf.TrainSteps),
		"detect.train_sessions": float64(perf.TrainSessions),
	}
	if tr != nil {
		// Results carries no busy time; only the pass that holds the sessions
		// can read it off their cloud services.
		o.counts["cloud.busy_s"] = busy
	}
	var delaySum float64
	for _, r := range results {
		o.counts["core.frames"] += float64(r.FramesTotal)
		o.counts["edge.sampled_frames"] += float64(r.SampledFrames)
		o.counts["netsim.up_bytes"] += float64(r.UpBytes)
		o.counts["netsim.down_bytes"] += float64(r.DownBytes)
		o.counts["cloud.batches"] += float64(r.CloudBatches)
		o.counts["cloud.dropped_batches"] += float64(r.CloudDroppedBatches)
		delaySum += r.CloudQueueDelayMeanSec * float64(r.CloudBatches)
		o.counts["cloud.queue_delay_max_s"] = math.Max(o.counts["cloud.queue_delay_max_s"], r.CloudQueueDelayMaxSec)
	}
	if b := o.counts["cloud.batches"]; b > 0 {
		o.counts["cloud.queue_delay_mean_s"] = delaySum / b
	}
	o.offered = o.counts["cloud.batches"] + o.counts["cloud.dropped_batches"]
	o.refused = o.counts["cloud.dropped_batches"]

	g.outcomes(o, results)
	g.checkGolden(o, results)
	return o, nil
}

// outcomes derives the paper-facing numbers: Shoggoth's mAP gain over
// Edge-Only, its distance from the paper's Table I row, and its uplink as a
// share of Cloud-Only's, each a mean over the three profiles.
func (g *gridInstance) outcomes(o *outcome, results []*shoggoth.Results) {
	var paper struct {
		Shoggoth map[string]float64 `json:"shoggoth_map50_pct"`
	}
	if err := json.Unmarshal(paperTable1JSON, &paper); err != nil {
		o.failf("expected/table1_paper.json: %v", err)
		return
	}
	cell := map[[2]string]*shoggoth.Results{}
	for _, r := range results {
		cell[[2]string{r.Profile, r.Strategy}] = r
	}
	var gain, paperErr, uplink float64
	for _, p := range g.profiles {
		shog := cell[[2]string{p.Name, shoggoth.Shoggoth.String()}]
		edge := cell[[2]string{p.Name, shoggoth.EdgeOnly.String()}]
		cld := cell[[2]string{p.Name, shoggoth.CloudOnly.String()}]
		if shog == nil || edge == nil || cld == nil || cld.UpKbps <= 0 {
			o.failf("table1_grid: profile %s lacks a Shoggoth, Edge-Only or Cloud-Only cell", p.Name)
			return
		}
		gain += 100 * (shog.MAP50 - edge.MAP50)
		paperErr += math.Abs(100*shog.MAP50 - paper.Shoggoth[p.Name])
		uplink += shog.UpKbps / cld.UpKbps
	}
	n := float64(len(g.profiles))
	o.extra = map[string]float64{
		"map50_gain_pts":       gain / n,
		"paper_map50_err_pts":  paperErr / n,
		"uplink_vs_cloud_only": uplink / n,
	}
	// One scenario cycle is the repo's quick mode: per-profile ordering is
	// not calibrated there (kitti flips on some seeds), the mean gain is.
	if g.sz.full && gain <= 0 {
		o.failf("table1_grid: Shoggoth's mean mAP@0.5 gain over Edge-Only is %.2f pts, want > 0", gain/n)
	}
}

// checkGolden compares the ua-detrac slice with testdata/golden_results.json
// byte for byte, under the same conditions as the repo's golden test: seed
// 1, one cycle, amd64 (other architectures may fuse multiply-adds).
func (g *gridInstance) checkGolden(o *outcome, results []*shoggoth.Results) {
	if !g.sz.full || g.seed != 1 || runtime.GOARCH != "amd64" {
		return
	}
	golden, err := os.ReadFile(filepath.Join(g.root, "testdata", "golden_results.json"))
	if err != nil {
		o.failf("table1_grid: %v", err)
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results[:len(shoggoth.StrategyKinds())]); err != nil {
		o.failf("table1_grid: %v", err)
		return
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		o.failf("table1_grid: ua-detrac slice differs from testdata/golden_results.json")
	}
}

// ---------------------------------------------------------------- fleet_*

// cloudMode is the three tier knobs that differ between fleet_fifo (all
// zero: eager FIFO, round-robin) and fleet_policy (deferred wfq dispatch,
// least-loaded routing, coalescing).
type cloudMode struct {
	policy, router string
	coalesce       int
}

type fleetInstance struct {
	sz   sizes
	cfgs []shoggoth.Config
	mode cloudMode
}

// setupFleet builds the rush-hour fleet at events fidelity.
func setupFleet(a setupArgs, mode cloudMode) (instance, error) {
	seed, sz := a.seed, a.sz
	id := a.tr.begin("setup.configs")
	defer a.tr.end(id)
	sc, err := shoggoth.ScenarioByName("rush-hour")
	if err != nil {
		return nil, err
	}
	cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, sz.fleetDevices,
		shoggoth.WithSeed(seed), shoggoth.WithCycles(sz.fleetCycles),
		shoggoth.WithFidelity(shoggoth.FidelityEvents))
	if err != nil {
		return nil, err
	}
	return &fleetInstance{sz: sz, cfgs: cfgs, mode: mode}, nil
}

func (f *fleetInstance) close() {}

func (f *fleetInstance) run(tr *tracer) (*outcome, error) {
	o := &outcome{attempted: int64(len(f.cfgs))}
	var perf shoggoth.PerfCounters
	var phases shoggoth.EnginePhases
	cluster := &shoggoth.Cluster{
		AggregateOnly: true, Replicas: 8, Workers: 32, QueueCap: 4096, EngineWorkers: 2,
		Policy: f.mode.policy, Router: f.mode.router, Coalesce: f.mode.coalesce,
		Perf: &perf,
	}
	cfgs := f.cfgs
	if tr != nil {
		cfgs = append([]shoggoth.Config(nil), f.cfgs...)
		for i := range cfgs {
			cfgs[i].PerfClock = now
		}
		cluster.Phases = &phases
	}
	var res *shoggoth.ClusterResults
	var err error
	o.wall, o.cpu, err = timed(func() error {
		id := tr.begin("cluster.run")
		defer tr.end(id)
		res, err = cluster.Run(context.Background(), cfgs)
		return err
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		o.layer = map[string]float64{
			"sim.engine.advance_s":      phases.AdvanceSec,
			"sim.engine.merge_s":        phases.MergeSec,
			"sim.engine.serial_s":       phases.SerialSec,
			"sim.engine.unattributed_s": o.wall - phases.AdvanceSec - phases.MergeSec - phases.SerialSec,
		}
	}
	if o.digest, err = digestOf(res); err != nil {
		return nil, err
	}
	fl, cl := res.Fleet, res.Cloud
	n := float64(fl.Devices)
	o.counts = map[string]float64{
		"core.frames":              float64(fl.FramesTotal),
		"detect.infer_frames":      float64(perf.InferFrames),
		"detect.train_steps":       float64(perf.TrainSteps),
		"detect.train_sessions":    float64(perf.TrainSessions),
		"edge.sampled_frames":      math.Round(fl.SampledFrames.Mean * n),
		"netsim.up_bytes":          math.Round(fl.UpBytes.Mean * n),
		"netsim.down_bytes":        math.Round(fl.DownBytes.Mean * n),
		"cloud.batches":            float64(cl.Batches),
		"cloud.dropped_batches":    float64(cl.DroppedBatches),
		"cloud.admission_rejected": float64(cl.AdmissionRejected),
		"cloud.coalesced_forwards": float64(cl.CoalescedForwards),
		"cloud.busy_s":             cl.BusySeconds,
		"cloud.queue_delay_mean_s": cl.QueueDelayMeanSec,
		"cloud.queue_delay_max_s":  cl.QueueDelayMaxSec,
		"cloud.jain_fairness":      cl.JainFairness,
		"sim.engine.events":        float64(res.Engine.Events),
		"sim.engine.epochs":        float64(res.Engine.Epochs),
	}
	o.offered = float64(cl.Batches + cl.DroppedBatches)
	o.refused = float64(cl.DroppedBatches)
	if fl.Devices != f.sz.fleetDevices {
		o.failf("fleet: %d devices simulated, want %d", fl.Devices, f.sz.fleetDevices)
	}
	if cl.Batches == 0 {
		o.failf("fleet: the cloud tier served no batch")
	}
	// A fleet that drops most of what it is offered times the drop path,
	// not cloud dispatch (BENCH_core.json's fleet_100k_capped drops 99.85%).
	if o.offered > 0 && o.refused/o.offered >= 0.5 {
		o.failf("fleet: %.0f of %.0f batches dropped", o.refused, o.offered)
	}
	return o, nil
}

// ---------------------------------------------------------------- live_loopback

type liveInstance struct {
	profile *video.Profile
	seed    uint64
	sz      sizes
	batches [liveClients][][]video.Frame
	srv     *liveServer
	used    bool
}

// setupLive pre-generates each client's upload batches and starts the cloud
// server on a loopback port.
func setupLive(a setupArgs) (instance, error) {
	seed, sz, tr := a.seed, a.sz, a.tr
	p, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		return nil, err
	}
	l := &liveInstance{profile: p, seed: seed, sz: sz}
	id := tr.begin("setup.pregen")
	for c := range l.batches {
		stream := video.NewStream(p, seed+uint64(c))
		l.batches[c] = make([][]video.Frame, sz.liveCycle)
		for b := range l.batches[c] {
			frames := make([]video.Frame, liveBatchFrames)
			for i := range frames {
				for skip := 1; skip < liveFrameStride; skip++ {
					stream.Next()
				}
				frames[i] = *stream.Next()
			}
			l.batches[c][b] = frames
		}
	}
	tr.end(id)
	id = tr.begin("setup.listen")
	l.srv, err = startLiveServer(p, seed, nil)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return l, nil
}

func (l *liveInstance) close() { l.srv.stop() }

// liveServer is rpc.Server behind net/http on 127.0.0.1:0.
type liveServer struct {
	url  string
	http *http.Server
	done chan struct{}
	rec  *handlerRecorder
}

func startLiveServer(p *video.Profile, seed uint64, rec *handlerRecorder) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := rpc.NewServerOpts(p, seed, rpc.ServerOptions{}).Handler()
	if rec != nil {
		handler = rec.wrap(handler)
	}
	s := &liveServer{url: "http://" + ln.Addr().String(), http: &http.Server{Handler: handler}, done: make(chan struct{}), rec: rec}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // always returns ErrServerClosed after stop
	}()
	return s, nil
}

// stop closes the listener and every connection, and waits for Serve.
func (s *liveServer) stop() {
	_ = s.http.Close() // the listener is already being torn down; nothing to do on error
	<-s.done
}

// handlerRecorder is the traced pass's http.Handler wrapper: it times
// Server.Handler() from outside and counts bytes across it.
type handlerRecorder struct {
	mu        sync.Mutex
	handleSec []float64
	requests  int64
	rejected  int64
	reqBytes  int64
	respBytes int64
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (r *handlerRecorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/label" {
			next.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := now()
		next.ServeHTTP(cw, req)
		dt := now() - t0
		r.mu.Lock()
		r.handleSec = append(r.handleSec, dt)
		r.requests++
		if cw.status == http.StatusTooManyRequests {
			r.rejected++
		}
		r.reqBytes += req.ContentLength
		r.respBytes += cw.bytes
		r.mu.Unlock()
	})
}

// clientTally is one closed-loop edge's view of a pass.
type clientTally struct {
	rttMs     []float64 // timed requests only; a failure reads as the client deadline
	sent, ok  int
	refused   int
	labelSets int
	labels    int64   // labels received, a cheap content check
	classSum  int64   // sum of their classes
	phiSum    float64 // sum of reply PhiMean
	status    *rpc.StatusResponse
	err       error
}

func (l *liveInstance) run(tr *tracer) (*outcome, error) {
	// Each pass needs a cloud that has seen no device, so that replies are a
	// function of the inputs alone; the traced pass also needs the wrapper.
	if l.used || tr != nil {
		l.srv.stop()
		var rec *handlerRecorder
		if tr != nil {
			rec = &handlerRecorder{}
		}
		srv, err := startLiveServer(l.profile, l.seed, rec)
		if err != nil {
			return nil, err
		}
		l.srv = srv
	}
	l.used = true

	o := &outcome{}
	tallies := make([]clientTally, liveClients)
	clients := make([]*rpc.Client, liveClients)
	var warm, done sync.WaitGroup
	gate := make(chan struct{})
	missMs := rpc.DefaultTimeout.Seconds() * 1e3
	for c := range tallies {
		warm.Add(1)
		done.Add(1)
		clients[c] = rpc.NewClient(l.srv.url, fmt.Sprintf("edge-%d", c+1))
		go func(c int, cl *rpc.Client, t *clientTally) {
			defer done.Done()
			for i := 0; i < l.sz.liveBatches; i++ {
				if i == l.sz.liveWarmup {
					warm.Done()
					<-gate
				}
				frames := l.batches[c][i%l.sz.liveCycle]
				t0 := now()
				resp, err := cl.Label(frames, 0.5, 0.5)
				ms := (now() - t0) * 1e3
				t.sent++
				switch {
				case err == nil:
					t.ok++
					t.labelSets += len(resp.Labels)
					for _, set := range resp.Labels {
						t.labels += int64(len(set))
						for _, lab := range set {
							t.classSum += int64(lab.Class)
						}
					}
					t.phiSum += resp.PhiMean
				case errors.Is(err, rpc.ErrBackpressure):
					t.refused++
					ms = missMs
				default:
					if t.err == nil {
						t.err = err
					}
					ms = missMs
				}
				if i >= l.sz.liveWarmup {
					t.rttMs = append(t.rttMs, ms)
				}
			}
		}(c, clients[c], &tallies[c])
	}
	warm.Wait()
	var err error
	o.wall, o.cpu, err = timed(func() error {
		id := tr.begin("live.closed_loop")
		defer tr.end(id)
		close(gate)
		done.Wait()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Status is read once every client is done, so the tier totals are final.
	for c, cl := range clients {
		st, err := cl.Status()
		if err != nil && tallies[c].err == nil {
			tallies[c].err = err
		}
		tallies[c].status = st
		cl.HTTP.CloseIdleConnections()
	}

	var rtts []float64
	var sums []any
	o.counts = map[string]float64{}
	o.inexact = map[string]bool{"cloud.queue_delay_mean_s": true, "cloud.queue_delay_max_s": true}
	for c, t := range tallies {
		if t.err != nil {
			o.failf("live_loopback: client %d: %v", c+1, t.err)
		}
		rtts = append(rtts, t.rttMs...)
		o.attempted += int64(t.sent)
		o.failed += int64(t.sent - t.ok)
		o.counts["rpc.requests"] += float64(t.sent)
		o.counts["rpc.rejected_429"] += float64(t.refused)
		sums = append(sums, t.ok, t.labels, t.classSum, t.phiSum)
		if t.labelSets != liveBatchFrames*t.ok {
			o.failf("live_loopback: client %d got %d label sets for %d replies of %d frames", c+1, t.labelSets, t.ok, liveBatchFrames)
		}
		if t.status == nil {
			continue
		}
		if want := int64(liveBatchFrames * t.ok); t.status.FramesLabeled != want {
			o.failf("live_loopback: cloud labeled %d frames for client %d, want %d", t.status.FramesLabeled, c+1, want)
		}
		if c == len(tallies)-1 {
			tier := t.status.Tier
			o.counts["cloud.batches"] = float64(tier.Batches)
			o.counts["cloud.dropped_batches"] = float64(tier.DroppedBatches)
			o.counts["cloud.admission_rejected"] = float64(tier.AdmissionRejected)
			o.counts["cloud.coalesced_forwards"] = float64(tier.CoalescedForwards)
			o.counts["cloud.busy_s"] = tier.BusySeconds
			o.counts["cloud.queue_delay_mean_s"] = tier.QueueDelayMeanSec
			o.counts["cloud.queue_delay_max_s"] = tier.QueueDelayMaxSec
			o.counts["cloud.jain_fairness"] = tier.JainFairness
		}
	}
	o.offered, o.refused = float64(o.attempted), float64(o.failed)
	if o.digest, err = digestOf(sums); err != nil {
		return nil, err
	}
	o.extra = map[string]float64{
		"label_rtt_p50_ms": metrics.Quantile(rtts, 0.50),
		"label_rtt_p90_ms": metrics.Quantile(rtts, 0.90),
		"label_rtt_p99_ms": metrics.Quantile(rtts, 0.99),
	}
	if rec := l.srv.rec; rec != nil {
		p50 := metrics.Quantile(rec.handleSec, 0.50) * 1e3
		o.layer = map[string]float64{
			"rpc.server.handle_ms_p50": p50,
			"rpc.server.handle_ms_p90": metrics.Quantile(rec.handleSec, 0.90) * 1e3,
			"rpc.transport_ms_p50":     o.extra["label_rtt_p50_ms"] - p50,
		}
		o.counts["rpc.req_bytes"] = float64(rec.reqBytes)
		o.counts["rpc.resp_bytes"] = float64(rec.respBytes)
		if rec.requests != o.attempted {
			o.failf("live_loopback: the server handled %d label requests, clients sent %d", rec.requests, o.attempted)
		}
	}
	return o, nil
}
