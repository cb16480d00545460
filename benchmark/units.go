package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand/v2"
	"runtime"

	"shoggoth"
	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/detect"
	"shoggoth/internal/edge"
	"shoggoth/internal/metrics"
	"shoggoth/internal/netsim"
	"shoggoth/internal/nn"
	"shoggoth/internal/replay"
	"shoggoth/internal/rpc"
	"shoggoth/internal/sim"
	"shoggoth/internal/tensor"
	"shoggoth/internal/video"
)

// unitStat is one unit-cost row: the median and quartiles, over Batches
// timed batches of Ops calls each, of the cost per item (nanoseconds unless
// the row's name says otherwise), and the heap allocations per item.
type unitStat struct {
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Batches int     `json:"batches"`
	Ops     int     `json:"ops_per_batch"`
	Allocs  float64 `json:"allocs_per_item"`
}

// unitBench times calls into the public functions of each layer, one row
// per layer cost the ledger multiplies by a count. Inputs derive from the
// seed; op counts are fixed, so two runs do identical work.
type unitBench struct {
	sz    sizes
	seed  uint64
	rows  []unitRow
	stats map[string]unitStat
	err   error // first error an operation hit while being timed

	pretrainSec     float64 // detect.pretrain_s, timed once while building fixtures
	stepsPerSession float64 // SGD steps in one paper-configuration training session
}

// fail keeps the first error of a timed operation; measure's caller
// reports it.
func (u *unitBench) fail(err error) {
	if err != nil && u.err == nil {
		u.err = err
	}
}

// unitRow is one registered measurement: mk builds (or rebuilds) the
// fixture and returns the operation, which is called ops times per batch
// and covers items units of the row's quantity per call (steps in a
// training session, frames in a batch).
type unitRow struct {
	name  string
	ops   int
	items float64
	mk    func() func()
	per   []float64
}

// rng returns a fresh deterministic stream for one fixture.
func (u *unitBench) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(u.seed, 0xb37c0000+stream))
}

// row registers an operation that can be repeated on one fixture.
func (u *unitBench) row(name string, ops int, items float64, op func()) {
	u.rowFresh(name, ops, items, func() func() { return op })
}

// rowFresh registers an operation that consumes or grows its fixture: mk
// rebuilds it, untimed, before every batch.
func (u *unitBench) rowFresh(name string, ops int, items float64, mk func() func()) {
	u.rows = append(u.rows, unitRow{name: name, ops: max(1, ops/u.sz.unitDiv), items: items, mk: mk})
}

// measure runs every registered row: one untimed batch each (warm-up, and
// the allocation count), then unitBatches rounds of one timed batch per
// row. Going round the rows spreads each row's batches over the whole
// measurement, so a slow second on the host costs every row one batch
// instead of costing one row all of its batches.
func (u *unitBench) measure() {
	allocs := make([]float64, len(u.rows))
	for r := range u.rows {
		row := &u.rows[r]
		op := row.mk()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < row.ops; i++ {
			op()
		}
		runtime.ReadMemStats(&m1)
		allocs[r] = float64(m1.Mallocs-m0.Mallocs) / (float64(row.ops) * row.items)
	}
	for b := 0; b < u.sz.unitBatches; b++ {
		for r := range u.rows {
			row := &u.rows[r]
			op := row.mk()
			t0 := now()
			for i := 0; i < row.ops; i++ {
				op()
			}
			row.per = append(row.per, (now()-t0)*1e9/(float64(row.ops)*row.items))
		}
	}
	for r, row := range u.rows {
		q1, med, q3 := quartiles(row.per)
		u.stats[row.name] = unitStat{Median: med, Q1: q1, Q3: q3, Batches: len(row.per), Ops: row.ops, Allocs: allocs[r]}
	}
}

func randomMatrix(rows, cols int, rng *rand.Rand, sparse bool) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if sparse && m.Data[i] < 0 {
			m.Data[i] = 0 // ReLU output: about half the entries are zero
		}
	}
	return m
}

// labeledBatch synthesises n labeled regions from a profile's pretraining
// distribution (the fixture of the repo's own trainer benchmarks).
func labeledBatch(p *video.Profile, n int, rng *rand.Rand) []detect.LabeledRegion {
	set := video.GeneratePretrainSet(p, n, rng)
	out := make([]detect.LabeledRegion, len(set))
	for i, smp := range set {
		out[i] = detect.LabeledRegion{Features: smp.Features, Class: smp.Class, Offset: smp.Offset, HasBox: smp.HasBox}
	}
	return out
}

// runUnits measures every unit-cost row.
func runUnits(seed uint64, sz sizes) (map[string]unitStat, error) {
	u := &unitBench{sz: sz, seed: seed, stats: map[string]unitStat{}}
	p := video.DETRACProfile()
	stream := video.NewStream(p, seed)
	frames := make([]*video.Frame, 16)
	for i := range frames {
		frames[i] = stream.Next()
	}

	u.tensorRows()
	student := u.detectRows(p, frames)
	u.replayRows()
	u.videoRows(p)
	u.metricsRows(p, student)
	u.edgeRows()
	if err := u.netsimRows(); err != nil {
		return nil, err
	}
	if err := u.cloudRows(p, frames); err != nil {
		return nil, err
	}
	u.simRows()
	if err := u.coreRows(p, student); err != nil {
		return nil, err
	}
	u.rpcRows(p, frames)
	u.measure()
	if u.err != nil {
		return nil, u.err
	}

	// Backward needs the activations of a forward pass, so its row times
	// both and the forward median comes off.
	bw, fw := u.stats["nn.backward_ns"], u.stats["nn.forward_ns"].Median
	bw.Median, bw.Q1, bw.Q3 = bw.Median-fw, bw.Q1-fw, bw.Q3-fw
	u.stats["nn.backward_ns"] = bw
	single := func(v float64) unitStat { return unitStat{Median: v, Batches: 1, Ops: 1} }
	u.stats["detect.pretrain_s"] = single(u.pretrainSec)
	u.stats["detect.infer_frame_allocs"] = single(u.stats["detect.infer_frame_ns"].Allocs)
	u.stats["detect.train_session_allocs"] = single(u.stats["detect.train_step_exact_ns"].Allocs * u.stepsPerSession)
	return u.stats, nil
}

// tensorRows time the three kernels behind a dense layer at the student's
// shapes: a 64-row mini-batch through a 48x48 layer.
func (u *unitBench) tensorRows() {
	rng := u.rng(1)
	a := randomMatrix(64, 48, rng, true)
	w := randomMatrix(48, 48, rng, false)
	g := randomMatrix(64, 48, rng, false)
	bias := randomMatrix(1, 48, rng, false)
	dst := tensor.New(64, 48)
	var nz tensor.NZScratch
	u.row("tensor.mul_bias_nz_ns", 300, 1, func() { tensor.MulBiasIntoNZ(dst, a, w, bias, &nz) })
	u.rowFresh("tensor.mul_atb_add_nz_ns", 300, 1, func() func() {
		acc := tensor.New(48, 48)
		return func() { tensor.MulAtBAddNZ(acc, a, g, &nz) }
	})
	var fs tensor.FastScratch
	u.row("tensor.fast_mul_bias_ns", 300, 1, func() { tensor.FastMulBiasInto(dst, a, w, bias, tensor.LaneF64, &fs) })
}

// detectRows time the student, the trainer on both compute tiers, the
// teacher and one offline pretraining; it returns the pretrained student so
// later rows infer with realistic weights.
func (u *unitBench) detectRows(p *video.Profile, frames []*video.Frame) *detect.Student {
	t0 := now()
	student := detect.NewStudent(p.FeatureDim(), p.NumClasses(), u.rng(2))
	cfg := detect.DefaultPretrainConfig()
	cfg.Epochs = max(1, cfg.Epochs/u.sz.unitDiv)
	detect.Pretrain(student, video.GeneratePretrainSet(p, p.PretrainSamples, u.rng(3)), cfg, u.rng(4))
	u.pretrainSec = now() - t0

	net := student.Clone()
	x := randomMatrix(64, p.FeatureDim(), u.rng(5), false)
	u.row("nn.forward_ns", 50, 1, func() { net.Backbone.Forward(x, true) })
	grad := tensor.New(64, net.Backbone.OutDim(p.FeatureDim(), net.Backbone.Len()))
	grad.Fill(0.1)
	u.row("nn.backward_ns", 50, 1, func() {
		net.Backbone.Forward(x, true)
		net.Backbone.Backward(grad)
		net.Backbone.ZeroGrads()
	})

	i := 0
	u.row("detect.infer_frame_ns", 200, 1, func() { student.Infer(frames[i%len(frames)]); i++ })

	teacher := detect.NewTeacher(p, u.rng(6))
	u.row("detect.teacher_label_ns", 1000, 1, func() { teacher.Label(frames[i%len(frames)]); i++ })

	// The paper's training configuration: 8 epochs of 64-sample mini-batches
	// over a warm 1500-sample replay memory.
	for _, tier := range []struct {
		name    string
		compute nn.Compute
	}{
		{"detect.train_step_exact_ns", nn.Compute{}},
		{"detect.train_step_fast_ns", nn.Compute{Fast: true, Lane: tensor.LaneF64}},
	} {
		rng := u.rng(7)
		tcfg := detect.DefaultTrainerConfig()
		tcfg.Compute = tier.compute
		tr := detect.NewTrainer(detect.NewStudent(p.FeatureDim(), p.NumClasses(), rng), tcfg, u.rng(8))
		for s := 0; s < 4; s++ {
			tr.RunSession(labeledBatch(p, 300, rng))
		}
		batch := labeledBatch(p, 64, rng)
		u.stepsPerSession = float64(tr.RunSession(batch).Steps)
		u.row(tier.name, 1, u.stepsPerSession, func() { tr.RunSession(batch) })
	}
	return student
}

func (u *unitBench) replayRows() {
	rng := u.rng(9)
	batch := make([]replay.Sample, 300)
	for i := range batch {
		act := make([]float64, 32)
		for j := range act {
			act[j] = rng.NormFloat64()
		}
		batch[i] = replay.Sample{Activation: act, Class: rng.IntN(5), HasBox: i%2 == 0}
	}
	mem := replay.NewMemory(1500, u.rng(10))
	for i := 0; i < 8; i++ {
		mem.Update(batch)
	}
	u.row("replay.update_ns", 100, 1, func() { mem.Update(batch) })
	var buf []replay.Sample
	u.row("replay.sample_into_ns", 5000, 1, func() { buf = mem.SampleInto(53, buf) })
}

func (u *unitBench) videoRows(p *video.Profile) {
	u.rowFresh("video.stream_next_ns", 500, 1, func() func() {
		s := video.NewStream(p, u.seed+1)
		return func() { s.Next() }
	})
	sparse := video.NewSparseStream(p, u.seed)
	i := 0
	u.row("video.sparse_meta_ns", 20000, 1, func() { sparse.Meta(i, float64(i)/30); i++ })
}

// metricsRows time the result fold over what a 100 s stream leaves in a
// session's collector: 3000 frames of ground truth and student detections.
func (u *unitBench) metricsRows(p *video.Profile, student *detect.Student) {
	const nFrames = 3000
	type evaluated struct {
		idx  int
		t    float64
		gts  []metrics.GT
		dets []metrics.Det
	}
	var evs []evaluated
	var allGT []metrics.GT
	var allDet []metrics.Det
	stream := video.NewStream(p, u.seed+2)
	for i := 0; i < max(30, nFrames/u.sz.unitDiv); i++ {
		f := stream.Next()
		ev := evaluated{idx: f.Index, t: f.Time}
		for _, pr := range f.Proposals {
			if pr.GT != nil {
				ev.gts = append(ev.gts, metrics.GT{Frame: f.Index, Class: pr.GT.Class, Box: pr.GT.Box})
			}
		}
		for _, d := range student.Detect(f) {
			ev.dets = append(ev.dets, metrics.Det{Frame: f.Index, Class: d.Class, Confidence: d.Confidence, Box: d.Box})
		}
		evs = append(evs, ev)
		allGT = append(allGT, ev.gts...)
		allDet = append(allDet, ev.dets...)
	}
	var full *metrics.Collector
	u.rowFresh("metrics.add_frame_ns", 1, float64(len(evs)), func() func() {
		c := metrics.NewCollector()
		full = c
		return func() {
			for _, ev := range evs {
				c.AddFrame(ev.idx, ev.t, ev.gts, ev.dets)
			}
		}
	})
	u.row("metrics.map50_ns_per_det", 1, float64(max(1, len(allDet))), func() { metrics.MAP50(allDet, allGT) })
	u.row("metrics.windowed_map50_ns", 1, 1, func() { full.WindowedMAP50(10) })
}

func (u *unitBench) edgeRows() {
	dev := edge.NewDevice(edge.DefaultDeviceConfig())
	t := 0.0
	u.row("edge.device_tick_ns", 100000, 1, func() { dev.Tick(t, 1.0/30); t += 1.0 / 30 })
	smp := edge.NewSampler(2)
	u.row("edge.sampler_sample_ns", 200000, 1, func() { smp.Sample(t); t += 1.0 / 30 })
}

func (u *unitBench) netsimRows() error {
	lte, err := netsim.NewLTETrace(netsim.DefaultUplink(), 1, 0.3, 1.2, u.seed)
	if err != nil {
		return err
	}
	t := 0.0
	u.row("netsim.transfer_seconds_ns", 20000, 1, func() { netsim.TransferSeconds(lte, 250_000, t); t += 0.7 })

	// Uploads arrive in bursts of eight, so each join re-prices up to seven
	// transfers already in flight, as a busy cell tower does; the cell
	// drains a burst before the next one lands.
	const burst = 8
	uplink := netsim.DefaultUplink()
	drain := burst * 250_000 * 8 / uplink.BandwidthBps
	sched := sim.NewScheduler()
	medium := netsim.NewSharedMedium(uplink, sched)
	at, n := 0.0, 0
	u.row("netsim.shared_medium_join_ns", 5000, 1, func() {
		medium.Join(250_000, at, func(float64) {})
		if n++; n%burst == 0 {
			at += 1.1 * drain
			sched.AdvanceTo(at)
		}
	})
	return nil
}

// cloudRows time the cloud layer bottom up: the executed labeler, the rate
// controller, Router.Pick and Policy.Next alone over fixed snapshots, then
// whole-batch dispatch through a Service and through a Tier.
func (u *unitBench) cloudRows(p *video.Profile, frames []*video.Frame) error {
	lab := cloud.NewLabeler(detect.NewTeacher(p, u.rng(11)), cloud.DefaultLabelerConfig())
	i := 0
	u.row("cloud.labeler.frame_ns", 1000, 1, func() { lab.LabelFrame(frames[i%len(frames)]); i++ })
	u.row("cloud.labeler.batch_ns_per_frame", 60, float64(len(frames)), func() { lab.LabelBatch(frames) })

	ctrl := cloud.NewController(cloud.DefaultControllerConfig())
	u.row("cloud.controller.update_ns", 100000, 1, func() { ctrl.Update(0.2+0.001*float64(i%100), 0.6, 0.5); i++ })

	// Router.Pick alone: eight replicas in different load and warmth states,
	// the snapshot a fleet tier hands the router on every batch.
	rng := u.rng(12)
	replicas := make([]cloud.ReplicaState, 8)
	for r := range replicas {
		replicas[r] = cloud.ReplicaState{Index: r, QueueLen: rng.IntN(400), QueueCap: 4096,
			FreeInSec: rng.Float64(), Warmth: float64(rng.IntN(3))}
	}
	for _, name := range []string{cloud.RouterRoundRobin, cloud.RouterLeastLoaded, cloud.RouterDomainAffinity} {
		router, err := cloud.NewRouter(name)
		if err != nil {
			return err
		}
		route := cloud.RouteInfo{Device: "edge-1", Class: "standard", Domain: 1, Frames: 4}
		u.row("cloud.router."+name+".pick_ns", 200000, 1, func() { route.Seq++; router.Pick(replicas, route, 1) })
	}
	// Policy.Next alone: the head-of-line batch of each of 64 devices.
	eligible := make([]cloud.Pending, 64)
	for e := range eligible {
		eligible[e] = cloud.Pending{Device: fmt.Sprintf("edge-%d", e+1), Arrival: float64(e) * 0.01, Seq: e + 1,
			Frames: 4, Phi: rng.Float64(), ServedSec: rng.Float64() * 10, Weight: 1}
	}
	for _, name := range []string{cloud.PolicyWFQ, cloud.PolicyPhiPriority} {
		policy, err := cloud.NewPolicy(name)
		if err != nil {
			return err
		}
		u.row("cloud.policy."+name+".next_ns", 50000, 1, func() { policy.Next(eligible, 1) })
	}

	// Whole-batch dispatch, priced analytically as on the fleets (admission,
	// worker assignment, policy or router, completion events; no teacher).
	// Arrivals run just ahead of the service rate, so queues hold a backlog.
	sparse := video.NewSparseStream(p, u.seed)
	batch := make([]*video.Frame, 4)
	for f := range batch {
		batch[f] = sparse.Meta(f*15, float64(f)/2)
	}
	dispatch := func(name string, backend cloud.Backend, bind func(sim.Timeline), devices int, gap float64) error {
		sched := sim.NewScheduler()
		bind(sched)
		devs := make([]cloud.Device, devices)
		for d := range devs {
			dev, err := backend.RegisterDevice(fmt.Sprintf("unit-%d", d), detect.NewTeacher(p, u.rng(100+uint64(d))),
				cloud.DefaultLabelerConfig(), nil, cloud.DeviceOptions{Analytic: true})
			if err != nil {
				return err
			}
			devs[d] = dev
		}
		t, n := 0.0, 0
		u.row(name, 5000, 1, func() {
			t += gap
			devs[n%devices].Enqueue(batch, t, func(cloud.BatchResult) {})
			n++
			sched.AdvanceTo(t)
		})
		return nil
	}
	for _, policy := range []string{cloud.PolicyFIFO, cloud.PolicyWFQ} {
		svc := cloud.NewService(cloud.ServiceConfig{QueueCap: 16, Policy: policy, Workers: 2})
		if err := dispatch("cloud.service."+policy+"_enqueue_ns", svc, svc.Bind, 8, 0.08); err != nil {
			return err
		}
	}
	tier := cloud.NewTier(cloud.TierConfig{Replicas: 8, Service: cloud.ServiceConfig{QueueCap: 4096, Workers: 32}})
	return dispatch("cloud.tier.enqueue_ns", tier, tier.Bind, 64, 4*0.045/(8*32)*0.95)
}

// idleActor is a device with nothing to simulate: an event every period,
// and every emitEvery-th one posts a no-op to the shared timeline (and, per
// the engine's contract, stops advancing). What remains is the engine's own
// cost per event: heap maintenance, batching, the outbox merge.
type idleActor struct {
	next, period, end float64
	n, emitEvery      int
	out               *sim.Outbox
}

func (a *idleActor) NextEventTime() (float64, bool) { return a.next, a.next < a.end }

func (a *idleActor) AdvanceTo(limit float64) {
	for a.next < limit && a.next < a.end {
		t := a.next
		a.next += a.period
		a.n++
		if a.n%a.emitEvery == 0 {
			a.out.At(t, func(float64) {})
			return
		}
	}
}

func (u *unitBench) simRows() {
	// One event scheduled and one executed against a standing heap of 1024.
	sched := sim.NewScheduler()
	rng := u.rng(13)
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = 1 + rng.Float64()
	}
	for i := 0; i < 1024; i++ {
		sched.At(delays[i], func(float64) {})
	}
	i := 0
	u.row("sim.scheduler.at_advance_ns", 20000, 1, func() {
		t, _ := sched.NextTime()
		sched.At(t+delays[i%len(delays)], func(float64) {})
		sched.AdvanceTo(t)
		i++
	})

	const actors, horizon, fps, emitEvery = 1000, 20.0, 30.0, 60
	u.rowFresh("sim.engine.event_ns", 1, actors*horizon*fps, func() func() {
		eng := sim.NewEngine(sim.NewScheduler(), 1)
		for a := 0; a < actors; a++ {
			out := &sim.Outbox{}
			eng.Add(&idleActor{next: float64(a) / (actors * fps), period: 1 / fps, end: horizon,
				n: a % emitEvery, emitEvery: emitEvery, out: out}, out)
		}
		return func() { u.fail(eng.Run(context.Background(), horizon)) }
	})
}

// coreRows time one device's frame at each fidelity, deployment
// construction at each fidelity, and scenario config stamping.
func (u *unitBench) coreRows(p *video.Profile, student *detect.Student) error {
	full := shoggoth.NewConfig(shoggoth.Shoggoth, p, shoggoth.WithSeed(u.seed), shoggoth.WithDuration(600))
	full.Pretrained = student
	events := shoggoth.NewConfig(shoggoth.Shoggoth, p, shoggoth.WithSeed(u.seed), shoggoth.WithDuration(30000),
		shoggoth.WithFidelity(shoggoth.FidelityEvents))
	for _, row := range []struct {
		name string
		cfg  shoggoth.Config
		ops  int
	}{
		{"core.process_frame_ns", full, 300},
		{"core.fleet_frame_ns", events, 20000},
	} {
		sys, err := core.NewSystem(row.cfg)
		if err != nil {
			return err
		}
		u.row(row.name, row.ops, 1, func() { sys.Step() })
	}
	u.row("core.new_system_full_ns", 20, 1, func() {
		_, err := core.NewSystem(full)
		u.fail(err)
	})
	u.row("core.new_system_events_ns", 500, 1, func() {
		_, err := core.NewSystem(events)
		u.fail(err)
	})
	sc, err := shoggoth.ScenarioByName("rush-hour")
	if err != nil {
		return err
	}
	const devices = 2000
	u.row("scenario.configs_ns_per_device", 1, devices, func() {
		_, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, devices, shoggoth.WithSeed(u.seed),
			shoggoth.WithCycles(0.4), shoggoth.WithFidelity(shoggoth.FidelityEvents))
		u.fail(err)
	})
	return nil
}

// rpcRows time the wire codec the way the client and server use it: a
// fresh gob stream per message, one 20-frame upload and its reply.
func (u *unitBench) rpcRows(p *video.Profile, frames []*video.Frame) {
	req := rpc.LabelRequest{DeviceID: "edge-1", Alpha: 0.5, Lambda: 0.5}
	resp := rpc.LabelResponse{PhiMean: 0.2, NewRate: 1.5}
	lab := cloud.NewLabeler(detect.NewTeacher(p, u.rng(14)), cloud.DefaultLabelerConfig())
	for i := 0; i < liveBatchFrames; i++ {
		f := frames[i%len(frames)]
		req.Frames = append(req.Frames, *f)
		resp.Labels = append(resp.Labels, lab.LabelFrame(f).Labels)
	}
	codec := func(name string, msg any, fresh func() any) {
		var wire bytes.Buffer
		u.fail(gob.NewEncoder(&wire).Encode(msg))
		data := append([]byte(nil), wire.Bytes()...)
		u.row("rpc.encode_"+name+"_ns", 50, 1, func() {
			wire.Reset()
			u.fail(gob.NewEncoder(&wire).Encode(msg))
		})
		u.row("rpc.decode_"+name+"_ns", 50, 1, func() {
			u.fail(gob.NewDecoder(bytes.NewReader(data)).Decode(fresh()))
		})
	}
	codec("req", &req, func() any { return new(rpc.LabelRequest) })
	codec("resp", &resp, func() any { return new(rpc.LabelResponse) })
}
