package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"shoggoth/internal/cloud"
	"shoggoth/internal/detect"
	"shoggoth/internal/edge"
	"shoggoth/internal/metrics"
	"shoggoth/internal/netsim"
	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

// System is one simulated deployment: camera → edge device → network →
// cloud, executed in virtual time. It owns the substrate every strategy
// shares — drifting stream, student and teacher models, online labeler,
// sampling-rate controller, device and network accounting — and dispatches
// to the configured Strategy's hooks wherever behaviour differs. The
// deployment loop itself knows no strategy by name.
type System struct {
	cfg      Config
	strategy Strategy

	rng    *rand.Rand
	sched  *sim.Scheduler
	frames FrameSource         // full fidelity: the rendered camera stream
	sparse *video.SparseStream // events fidelity: frames without features

	// shared is the timeline for cross-device work (upload arrivals that
	// land on the cloud service). Privately it is the local scheduler; under
	// the fleet engine it is this device's Outbox, merged serially so the
	// global event order is worker-count invariant. uplink, when set,
	// replaces the point-to-point transfer pricing with a shared medium.
	shared  sim.Timeline
	uplink  UplinkSender
	fleet   bool // cfg.Fidelity == FidelityEvents
	uploads bool // strategy trait: samples frames for upload
	emitted bool // a flush posted to shared since the last AdvanceTo check

	student *detect.Student
	teacher *detect.Teacher
	device  *edge.Device
	sampler *edge.Sampler

	// cloudSvc is the labeling backend this deployment uploads to: a
	// private cloud.Tier built from the config's Cloud* knobs by default,
	// one shared across deployments under a Cluster. cloudDev is this
	// device's registration on it (labeler φ continuity plus the optional
	// sampling-rate controller).
	cloudSvc cloud.Backend
	cloudDev cloud.Device

	usage     netsim.Usage
	collector *metrics.Collector
	alphaAcc  metrics.Running // α since last report (binary conf ≥ θ)
	alphaAll  metrics.Running
	phiAll    metrics.Running

	sampleBuf     []*video.Frame
	firstBuffered float64
	pendingBatch  []detect.LabeledRegion
	batchFrames   int
	sessionsSched int

	ws *Workspace

	obs           Observer
	nextWindowEnd float64

	frameIdx int
	nFrames  int
	dt       float64
	final    *Results
	results  Results

	wakeCheck wakeCheck // shoggothdebug only: no flush may beat wakeFrame
	// wakeFrame is what an events-fidelity deployment reports to the engine
	// in place of its next camera frame: a frame index that is never later
	// than the first frame able to flush an upload (predictWake). AdvanceTo
	// re-derives it on the way out, so it holds for a deployment driven
	// through the Actor methods; Step neither reads nor maintains it.
	wakeFrame int
}

// adaptive reports whether the cloud controller drives the sampling rate.
func (c *Config) adaptive() bool {
	d, ok := Lookup(c.Kind)
	return ok && d.Traits.Adaptive && c.SampleRate == 0
}

// UplinkSender prices and delivers one encoded upload on a shared medium:
// bytes leave the device at start (encoding done) and deliver runs on the
// shared timeline when the transfer completes. Implementations re-price
// in-flight transfers as devices join and leave the medium.
type UplinkSender interface {
	Send(bytes int, start float64, deliver func(now float64))
}

// FrameSource hands a full-fidelity deployment its camera frames: one call
// per Step, frame k on the k-th call. A *video.Stream is one.
type FrameSource interface {
	Next() *video.Frame
}

// SystemOptions injects shared infrastructure into a deployment. The zero
// value gives the system a private scheduler, a private cloud service and a
// private video stream — the classic one-edge-one-cloud run.
type SystemOptions struct {
	// Scheduler, when set, is the virtual-time event loop this deployment
	// shares with others (a Cluster steps every device on one clock).
	Scheduler *sim.Scheduler
	// Cloud, when set, is a shared labeling backend (a Service or a Tier):
	// this device registers on it and contends with every other registered
	// device for teacher capacity.
	Cloud cloud.Backend
	// Shared, when set, receives the cross-device events this deployment
	// emits (upload arrivals). The fleet engine passes the device's Outbox;
	// nil routes them to the deployment's own scheduler, the classic
	// single-clock behaviour.
	Shared sim.Timeline
	// Uplink, when set, carries this device's uploads over a shared medium
	// instead of the config's point-to-point uplink model.
	Uplink UplinkSender
	// Frames, when set, supplies the camera frames in place of a private
	// video.NewStream(cfg.Profile, cfg.Seed) and must yield exactly the
	// frames that stream would. A Fleet hands every session watching one
	// (profile, seed) video the same source, so the video renders once;
	// frames are immutable (see video.Frame), so the sessions may all keep
	// it. Events fidelity renders no frames and ignores it.
	Frames FrameSource
}

// NewSystem builds a deployment for the config. If cfg.Pretrained is nil the
// student is pretrained from the profile's offline dataset (deterministic in
// the profile seed, so all strategies deploy the identical model).
func NewSystem(cfg Config) (*System, error) {
	return NewSystemOpts(cfg, SystemOptions{})
}

// NewSystemOpts is NewSystem with shared-infrastructure options.
func NewSystemOpts(cfg Config, opts SystemOptions) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Fidelity == FidelitySampled {
		// Sampled fidelity is resolved by the Cluster event engine, which
		// rewrites each device to full or events fidelity before building
		// systems; a System itself is always one or the other.
		return nil, fmt.Errorf("core: fidelity %q is a fleet-level mode; run it through a Cluster's event engine", cfg.Fidelity)
	}
	desc, _ := Lookup(cfg.Kind) // Validate rejected unregistered kinds
	// Resolve the compute tier once: Trainer carries it to every strategy's
	// trainer, the deployed student's inference kernels match it, and the
	// workspace advertises it to diagnostics. Explicit Trainer knobs win
	// when the top-level tier fields are unset.
	if cfg.ComputeTier != "" {
		cfg.Trainer.Compute = cfg.Compute()
	}
	if cfg.ComputeAccumWorkers != 0 {
		cfg.Trainer.AccumWorkers = cfg.ComputeAccumWorkers
	}
	sched := opts.Scheduler
	if sched == nil {
		sched = sim.NewScheduler()
	}
	s := &System{
		cfg:       cfg,
		rng:       rand.New(rand.NewPCG(cfg.Seed, RNGStreamRun)),
		sched:     sched,
		collector: metrics.NewCollector(),
		ws:        newWorkspace(cfg.PerfClock, cfg.Trainer.Compute),
		fleet:     cfg.Fidelity == FidelityEvents,
		uploads:   desc.Traits.Uploads,
	}
	s.shared = opts.Shared
	if s.shared == nil {
		s.shared = sched
	}
	s.uplink = opts.Uplink
	if cfg.UplinkCell != 0 && s.uplink == nil {
		return nil, fmt.Errorf("core: device %q sets UplinkCell %d but the runner models no shared medium (only the fleet event engine does)", cfg.DeviceID, cfg.UplinkCell)
	}
	if s.fleet {
		// Events fidelity: frames are materialized sparsely — only when
		// sampled, and without feature tensors — so a 100k-device fleet
		// never renders what nothing will consume.
		s.sparse = video.NewSparseStream(cfg.Profile, cfg.Seed)
	} else if s.frames = opts.Frames; s.frames == nil {
		s.frames = video.NewStream(cfg.Profile, cfg.Seed)
	}
	// The teacher is seeded from the run seed only, so every strategy on
	// the same (profile, seed) sees identical teacher behaviour.
	s.teacher = detect.NewTeacher(cfg.Profile, s.SeededRNG(RNGStreamTeacher))
	s.device = edge.NewDevice(cfg.Device)

	s.cloudSvc = opts.Cloud
	if s.cloudSvc == nil {
		tier := cloud.NewTier(cfg.CloudTierConfig())
		tier.Bind(sched)
		s.cloudSvc = tier
	}
	var ctrlCfg *cloud.ControllerConfig
	if cfg.adaptive() {
		ctrlCfg = &cfg.Controller
	}
	// Events-fidelity devices register analytic: labeling is priced through
	// the identical queueing/coalescing/cold-start machinery but the teacher
	// never executes (the cloud cost model of DESIGN.md §14).
	dev, err := s.cloudSvc.RegisterDevice(cfg.DeviceID, s.teacher, cfg.Labeler, ctrlCfg,
		cloud.DeviceOptions{SLOClass: cfg.SLOClass, Analytic: s.fleet})
	if err != nil {
		return nil, err
	}
	s.cloudDev = dev

	if desc.Traits.Student && !s.fleet {
		if cfg.Pretrained != nil {
			s.student = cfg.Pretrained.Clone()
		} else {
			s.student = detect.DefaultPretrainedStudent(cfg.Profile)
		}
		// Pretraining always runs exact; the deployed model infers on the
		// configured tier (NewTrainer re-applies the same tier for training
		// strategies, so this also covers student-less inference paths).
		s.student.SetCompute(cfg.Trainer.Compute)
	}

	rate := cfg.SampleRate
	if cfg.adaptive() {
		rate = s.cloudDev.Rate()
	}
	s.sampler = edge.NewSampler(rate)

	s.dt = 1 / cfg.Profile.FPS
	s.nFrames = int(cfg.DurationSec * cfg.Profile.FPS)
	s.nextWindowEnd = windowSec

	s.strategy = desc.New()
	if err := s.strategy.Init(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Run executes the deployment for the configured duration and returns the
// aggregated results.
func (s *System) Run() (*Results, error) {
	for s.Step() {
	}
	return s.Finish(), nil
}

// Step advances the deployment by one camera frame (plus every cloud,
// network and training event due before it) and reports whether frames
// remain. Call Finish once it returns false.
func (s *System) Step() bool {
	t, ok := s.NextFrameTime()
	if !ok {
		return false
	}
	s.sched.AdvanceTo(t)
	s.processFrame(t)
	s.emitWindows(t)
	return s.frameIdx < s.nFrames
}

// processFrame runs one camera frame at its due time: the full-fidelity
// path renders the frame and dispatches the strategy's OnFrame hook; the
// events fidelity runs the compute/sampling model directly.
func (s *System) processFrame(t float64) {
	s.results.FramesTotal++
	if s.fleet {
		s.fleetFrame(t)
	} else {
		f := s.frames.Next()
		s.strategy.OnFrame(f, t, s.dt)
	}
	s.frameIdx++
}

// fleetFrame is the events-fidelity frame step: the device compute model
// ticks, the sampler decides, and only sampled frames are materialized —
// sparsely, without feature tensors — for upload. The strategy's OnFrame
// hook is bypassed (its cloud-batch and train-due hooks still fire), so
// every events-fidelity strategy shares this canonical tick+sample path.
func (s *System) fleetFrame(t float64) {
	if s.device.Tick(t, s.dt) {
		s.results.FramesProcessed++
	}
	if !s.uploads {
		return
	}
	if s.sampler.Sample(t) {
		if len(s.sampleBuf) == 0 {
			s.firstBuffered = t
		}
		// Metadata only: the analytic cloud never reads proposals, so the
		// PCG proposal materialization of SparseStream.Frame is skipped.
		s.sampleBuf = append(s.sampleBuf, s.sparse.Meta(s.frameIdx, t))
		s.results.SampledFrames++
	}
	if len(s.sampleBuf) > 0 &&
		(len(s.sampleBuf) >= s.cfg.UploadFrames || t-s.firstBuffered >= s.cfg.UploadMaxWaitSec) {
		s.flushBuffer(t)
	}
}

// NextEventTime implements the fleet engine's Actor contract: a lower bound
// on the virtual time at which this deployment next posts to the shared
// timeline or runs a local scheduler event. At full fidelity that is the
// next camera frame or local event, whichever is first. An events-fidelity
// deployment reports its wake frame instead of its next frame, so the engine
// leaves it asleep across the frames that cannot upload; AdvanceTo replays
// them when the device is next selected. ok is false once nothing remains.
func (s *System) NextEventTime() (float64, bool) {
	ft, fok := s.NextFrameTime()
	if fok && s.fleet {
		ft = float64(s.wakeFrame) * s.dt
	}
	et, eok := s.sched.NextTime()
	switch {
	case fok && (!eok || ft <= et):
		return ft, true
	case eok:
		return et, true
	}
	return 0, false
}

// AdvanceTo fast-forwards the deployment, executing every camera frame and
// local event strictly before limit in virtual-time order (events due at a
// frame's time run first, exactly as Step orders them). It returns early
// the moment a flush posts to the shared timeline — the engine's
// emission-halt contract: later local work may depend on shared state that
// the emission itself will change, so the engine must merge and re-price
// before this device continues.
func (s *System) AdvanceTo(limit float64) {
	s.advanceTo(limit)
	if s.fleet {
		// Device-local state changes nowhere else, so the bound derived here
		// is still true when the engine reads it after a later serial phase.
		s.wakeFrame = s.predictWake()
		s.wakeCheck.predicted(s)
	}
}

func (s *System) advanceTo(limit float64) {
	for {
		ft, fok := s.NextFrameTime()
		if fok && ft < limit {
			s.sched.AdvanceTo(ft)
			s.processFrame(ft)
			s.emitWindows(ft)
			if s.emitted {
				s.emitted = false
				return
			}
			continue
		}
		et, eok := s.sched.NextTime()
		if !eok || et >= limit {
			return
		}
		s.sched.AdvanceTo(et)
		if s.emitted {
			s.emitted = false
			return
		}
	}
}

// predictWake returns the index of a frame that is never later than the
// first frame, from frameIdx on, on which fleetFrame can flush the sample
// buffer — and never later than the last frame, so the engine still runs
// the whole stream before Finish. It reads device-local state only (sampler
// credit and rate, the buffer and its first capture time): whatever the
// cloud does to that state arrives as a local scheduler event, which
// NextEventTime reports beside the wake. A bound that is early costs one
// extra visit; fleetFrame decides every flush itself, frame by frame.
//
// A flush needs a full buffer or an expired wait. The buffer cannot fill
// before the sampler has accepted the frames it lacks. A buffer that holds
// a frame expires at the first frame time t with t−firstBuffered ≥
// UploadMaxWaitSec, which is frame ⌈(firstBuffered+wait)/dt⌉ up to rounding;
// an empty one starts that clock at the next accepted frame. Each bound
// stops a frame short of the floor where exact arithmetic has the ceiling.
//
//shoggoth:hotpath
func (s *System) predictWake() int {
	last := s.nFrames - 1
	if !s.uploads {
		return last
	}
	next := float64(s.frameIdx)
	lacks := s.cfg.UploadFrames - len(s.sampleBuf)
	wake := next + s.sampler.SkipBefore(lacks, s.dt)
	var expiry float64
	if len(s.sampleBuf) > 0 {
		expiry = math.Floor((s.firstBuffered+s.cfg.UploadMaxWaitSec)/s.dt) - 1
	} else {
		expiry = next + s.sampler.SkipBefore(1, s.dt) + math.Floor(s.cfg.UploadMaxWaitSec/s.dt) - 1
	}
	wake = math.Min(wake, expiry)
	// Clamp before converting: wake is +Inf for a device that never uploads.
	switch {
	case wake >= float64(last):
		return last
	case wake > next:
		return int(wake)
	}
	return s.frameIdx
}

// Finish drains the scheduler and assembles the Results. A fully-played
// stream settles at the configured duration; a truncated one (stepped
// partway, then finished) settles at the elapsed stream time, so Duration
// and bandwidth rates describe what actually ran. It is idempotent.
func (s *System) Finish() *Results {
	if s.final != nil {
		return s.final
	}
	end := s.cfg.DurationSec
	if s.frameIdx < s.nFrames {
		end = float64(s.frameIdx) * s.dt
	}
	s.sched.AdvanceTo(end)
	s.emitWindows(end + windowSec) // flush the tail windows
	s.final = s.finalize(end)
	return s.final
}

// emitWindows streams the mAP of every window that closed before t to the
// observer (read-only over the collector: Results are unaffected).
func (s *System) emitWindows(t float64) {
	if s.obs == nil {
		return
	}
	for t >= s.nextWindowEnd && s.nextWindowEnd-windowSec < s.cfg.DurationSec {
		start := s.nextWindowEnd - windowSec
		if m, ok := s.collector.WindowMAP50At(start, windowSec); ok {
			s.obs.OnWindowMAP(metrics.WindowScore{Start: start, MAP: m})
		}
		s.nextWindowEnd += windowSec
	}
}

// SetObserver attaches a streaming observer; call it before the first Step.
func (s *System) SetObserver(o Observer) { s.obs = o }

// Config returns the run configuration.
func (s *System) Config() Config { return s.cfg }

// Scheduler exposes the virtual-time event scheduler.
func (s *System) Scheduler() *sim.Scheduler { return s.sched }

// CloudService exposes the labeling backend this deployment uploads to
// (private by default; shared under a Cluster).
func (s *System) CloudService() cloud.Backend { return s.cloudSvc }

// CloudDevice exposes this deployment's registration on its cloud backend.
func (s *System) CloudDevice() cloud.Device { return s.cloudDev }

// NextFrameTime returns the stream time of the next camera frame and
// whether any frames remain — what a multi-device runner needs to step
// deployments in global time order on a shared scheduler.
func (s *System) NextFrameTime() (float64, bool) {
	if s.frameIdx >= s.nFrames || s.final != nil {
		return 0, false
	}
	return float64(s.frameIdx) * s.dt, true
}

// Device exposes the edge device model.
func (s *System) Device() *edge.Device { return s.device }

// Teacher exposes the cloud golden model.
func (s *System) Teacher() *detect.Teacher { return s.teacher }

// Sampler exposes the edge frame sampler.
func (s *System) Sampler() *edge.Sampler { return s.sampler }

// Usage exposes the network byte accounting.
func (s *System) Usage() *netsim.Usage { return &s.usage }

// RNG returns the system's run RNG (shared by subsampling and noise
// injection; consumption order is part of a run's determinism contract).
func (s *System) RNG() *rand.Rand { return s.rng }

// Workspace returns the session's compute workspace (scratch pool and perf
// counters). Strategies thread it into their trainers so all of a session's
// hot-path scratch shares one owner and sessions never share buffers.
func (s *System) Workspace() *Workspace { return s.ws }

// SeededRNG derives an independent RNG from the run seed and a stream id,
// so per-strategy components get stable, collision-free randomness.
func (s *System) SeededRNG(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(s.cfg.Seed, stream))
}

// InferFrame runs real-time student inference for one camera frame if the
// device has cycles for it, recording detections and the α estimate.
func (s *System) InferFrame(f *video.Frame, t, dt float64) {
	if !s.device.Tick(t, dt) {
		return
	}
	started := s.ws.Perf.Now()
	res := s.student.Infer(f)
	s.ws.Perf.InferFrames++
	s.ws.Perf.InferSeconds += s.ws.Perf.Now() - started
	s.RecordProcessedFrame(f, res.Detections)
	for _, c := range res.Confidences {
		acc := 0.0
		if c >= confThreshold {
			acc = 1
		}
		s.alphaAcc.Add(acc)
		s.alphaAll.Add(acc)
	}
}

// SampleForUpload offers one frame to the sampler and flushes the sample
// buffer to the cloud when it is full (or has waited too long).
func (s *System) SampleForUpload(f *video.Frame, t float64) {
	cfg := s.cfg
	if s.sampler.Sample(t) {
		if len(s.sampleBuf) == 0 {
			s.firstBuffered = t
		}
		s.sampleBuf = append(s.sampleBuf, f)
		s.results.SampledFrames++
	}
	if len(s.sampleBuf) > 0 &&
		(len(s.sampleBuf) >= cfg.UploadFrames || t-s.firstBuffered >= cfg.UploadMaxWaitSec) {
		s.flushBuffer(t)
	}
}

// flushBuffer encodes and uploads the buffered sample frames together with
// the edge telemetry (α since last report, λ usage).
func (s *System) flushBuffer(t float64) {
	s.wakeCheck.flushing(s)
	cfg := s.cfg
	frames := s.sampleBuf
	s.sampleBuf = nil

	encSec := cfg.Codec.EncodeSeconds(len(frames))
	s.device.BeginEncoding(t + encSec)

	bytes := netsim.TelemetryBytes()
	for _, f := range frames {
		bytes += cfg.Codec.SampledFrameBytes(f.Complexity)
	}
	s.usage.AddUp(bytes)

	alpha := s.drainAlpha()
	lambda := s.device.DrainUsageReport()
	// The upload hits the network once encoding finishes; a time-varying
	// uplink trace (or the shared medium) prices it at that moment, not at
	// the flush. Delivery lands on the shared timeline: privately that is
	// the local scheduler (bit-identical to the classic path); under the
	// fleet engine it is this device's Outbox.
	start := t + encSec
	deliver := func(now float64) {
		s.cloudReceive(frames, alpha, lambda, now)
	}
	if s.uplink != nil {
		s.uplink.Send(bytes, start, deliver)
	} else {
		s.shared.At(start+cfg.UplinkTransfer(bytes, start), deliver)
	}
	s.emitted = true
}

// cloudReceive is the cloud's handler for an uploaded sample batch: it
// enqueues the batch on the labeling engine, which either drops it at a
// full queue (nothing more happens — no labels, no rate command) or
// eventually labels it and calls back into onBatchLabeled. Under the
// default arrival-order policy the callback runs synchronously at arrival;
// a reordering policy defers it to the dispatch event that serves the
// batch.
func (s *System) cloudReceive(frames []*video.Frame, alpha, lambda, now float64) {
	s.cloudDev.Enqueue(frames, now, func(batch cloud.BatchResult) {
		s.onBatchLabeled(frames, alpha, lambda, batch)
	})
}

// onBatchLabeled handles one labeled batch: φ accounting and the controller
// update are shared substrate; the labels are then handed to the strategy's
// OnCloudBatch hook.
func (s *System) onBatchLabeled(frames []*video.Frame, alpha, lambda float64, batch cloud.BatchResult) {
	cfg := s.cfg
	for _, p := range batch.Phis {
		s.phiAll.Add(p)
	}

	if rate, ok := s.cloudDev.UpdateRate(batch.PhiMean, alpha, lambda); ok {
		s.usage.AddDown(netsim.RateCommandBytes())
		at := batch.Done + cfg.DownlinkTransfer(netsim.RateCommandBytes(), batch.Done)
		s.sched.At(at, func(cmdNow float64) {
			s.sampler.SetRate(rate)
			pt := RatePoint{Time: cmdNow, Rate: rate}
			s.results.RateSeries = append(s.results.RateSeries, pt)
			if s.obs != nil {
				s.obs.OnRateCommand(pt)
			}
		})
	}

	s.strategy.OnCloudBatch(frames, batch.Labels, batch.Done)
}

// DepositLabels converts labeled frames into training regions and fires the
// strategy's OnTrainDue hook once a full batch has accumulated.
func (s *System) DepositLabels(frames []*video.Frame, labels [][]detect.TeacherLabel, now float64) {
	s.accumulateBatch(frames, labels)
	if s.batchFrames < s.cfg.BatchFrames {
		return
	}
	batch := s.pendingBatch
	s.pendingBatch = nil
	s.batchFrames = 0
	s.strategy.OnTrainDue(batch, now)
}

// accumulateBatch converts labeled frames into training regions, applying
// the per-frame subsample that keeps region batches at the paper's scale.
func (s *System) accumulateBatch(frames []*video.Frame, labels [][]detect.TeacherLabel) {
	if s.fleet {
		// Events fidelity trains nothing: count the frames so the session
		// cadence (OnTrainDue) stays faithful, but build no regions —
		// sparse frames carry no features to train on.
		s.batchFrames += len(frames)
		return
	}
	bg := s.cfg.Profile.BackgroundClass()
	for i, f := range frames {
		all := detect.BuildTrainingBatch(f, labels[i], bg)
		s.pendingBatch = append(s.pendingBatch, s.subsample(all)...)
	}
	s.batchFrames += len(frames)
}

// subsample picks up to trainRegionsPerFrame regions, preferring positives
// (class-balanced hard-example selection) while keeping some negatives.
func (s *System) subsample(regions []detect.LabeledRegion) []detect.LabeledRegion {
	const k = trainRegionsPerFrame
	if len(regions) <= k {
		return regions
	}
	bg := s.cfg.Profile.BackgroundClass()
	var pos, neg []detect.LabeledRegion
	for _, r := range regions {
		if r.Class == bg {
			neg = append(neg, r)
		} else {
			pos = append(pos, r)
		}
	}
	s.rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	s.rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	kPos := k - 1
	if kPos > len(pos) {
		kPos = len(pos)
	}
	out := append([]detect.LabeledRegion(nil), pos[:kPos]...)
	for len(out) < k && len(neg) > 0 {
		out = append(out, neg[0])
		neg = neg[1:]
	}
	for len(out) < k && kPos < len(pos) {
		out = append(out, pos[kPos])
		kPos++
	}
	return out
}

// ClaimSessionCost prices the next training session under the paper's
// canonical batch sizes and consumes the session slot: the first claim is
// priced as the cold session (no replay images yet), every later one at
// full replay. Call it exactly once per session actually scheduled — a
// price-only query would eat the cold-session discount.
func (s *System) ClaimSessionCost(tc detect.TrainerConfig) edge.SessionCost {
	first := s.sessionsSched == 0
	s.sessionsSched++
	replayVirtual := canonicalReplay
	if first {
		replayVirtual = 0
	}
	cost := s.cfg.Cost.Session(tc, first, canonicalBatch, replayVirtual)
	if s.fleet {
		// Events fidelity prices training instead of running it, so the
		// configured compute tier must show up in the price: the measured
		// exact/fast step ratio scales the whole session. Full fidelity is
		// untouched — there the tier's speed manifests as real wall time,
		// and virtual session durations stay tier-independent by contract.
		cost = cost.Scaled(edge.TierSpeedup(tc.Compute))
	}
	return cost
}

// AnalyticRegions estimates the total label-region count of a batch of
// metadata-only frames (events fidelity): the per-domain expected proposal
// count at each frame's capture time. It is the downlink-pricing stand-in
// for summing len(labels) over an executed teacher's output.
func (s *System) AnalyticRegions(frames []*video.Frame) int {
	if s.sparse == nil {
		return 0
	}
	n := 0
	for _, f := range frames {
		n += s.sparse.Regions(f.Time)
	}
	return n
}

// AddSession counts one completed training session.
func (s *System) AddSession() { s.results.Sessions++ }

// RecordSession logs a training-session record once its weights applied.
func (s *System) RecordSession(rec SessionRecord) {
	s.results.SessionTimes = append(s.results.SessionTimes, rec)
	if s.obs != nil {
		s.obs.OnTrainingSession(rec)
	}
}

// RecordProcessedFrame counts one inferred frame and collects its
// detections for metric evaluation.
func (s *System) RecordProcessedFrame(f *video.Frame, dets []detect.Detection) {
	s.results.FramesProcessed++
	s.collect(f, dets)
}

// collect records one evaluated frame into the metric collector.
func (s *System) collect(f *video.Frame, dets []detect.Detection) {
	c := s.collector
	c.BeginFrame(f.Index, f.Time)
	for i := range f.Proposals {
		if gt := f.Proposals[i].GT; gt != nil {
			c.AddGT(metrics.GT{Frame: f.Index, Class: gt.Class, Box: gt.Box})
		}
	}
	for _, d := range dets {
		c.AddDet(metrics.Det{Frame: f.Index, Class: d.Class, Confidence: d.Confidence, Box: d.Box})
	}
}

// drainAlpha returns the α estimate accumulated since the last report.
func (s *System) drainAlpha() float64 {
	if s.alphaAcc.Count() == 0 {
		return s.cfg.Controller.AlphaTarget // neutral: no evidence either way
	}
	m := s.alphaAcc.Mean()
	s.alphaAcc.Reset()
	return m
}

// finalize assembles the Results over the played stream time.
func (s *System) finalize(end float64) *Results {
	cfg := s.cfg
	r := &s.results
	r.Strategy = cfg.Kind.String()
	r.Profile = cfg.Profile.Name
	r.Duration = end
	r.MAP50 = s.collector.MAP50()
	r.AvgIoU = s.collector.AverageIoU()
	if end > 0 {
		r.UpKbps = s.usage.UpKbps(end)
		r.DownKbps = s.usage.DownKbps(end)
	}
	r.UpBytes = s.usage.UpBytes
	r.DownBytes = s.usage.DownBytes
	r.AvgFPS = s.device.FPS().Average()
	r.FPSSeries = s.device.FPS().Series()
	r.WindowMAPs = s.collector.WindowedMAP50(windowSec)
	r.PhiMean = s.phiAll.Mean()
	r.AlphaMean = s.alphaAll.Mean()
	r.Device = cfg.DeviceID
	r.SLOClass = cfg.SLOClass
	qs := s.cloudDev.Stats()
	r.CloudBatches = qs.Batches
	r.CloudDroppedBatches = qs.DroppedBatches
	r.CloudQueueDelayMeanSec = qs.QueueDelayMeanSec
	r.CloudQueueDelayMaxSec = qs.QueueDelayMaxSec
	return r
}

// Student exposes the deployed edge model (nil for strategies without one).
func (s *System) Student() *detect.Student { return s.student }

// RunExperiment is the one-call convenience API: build a system and run it.
func RunExperiment(cfg Config) (*Results, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}
