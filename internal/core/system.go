package core

import (
	"context"
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
	// cfg is borrowed from the runner for the run and read only: NewSystem
	// keeps its own copy, a Cluster or Fleet lends its configs in place.
	cfg      *Config
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
	// noSeries: keep no RateSeries, SessionTimes or FPS runs
	// (SystemOptions.NoSeries).
	noSeries bool
	// quietRates counts the quiet rate commands posted and not yet run, and
	// quietRate is the highest of them (0 once none is left): predictWake
	// predicts with it whenever it beats the sampler's rate.
	quietRates int32
	quietRate  float64

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
	// reporter is cloudDev when it takes the telemetry with the upload (a
	// live cloud's device); nil for the simulator's devices.
	reporter reporter

	usage     netsim.Usage
	collector *metrics.Collector
	alphaAcc  metrics.Running // α since last report (binary conf ≥ θ)
	alphaAll  metrics.Running
	phiAll    metrics.Running

	buf           *upload // the next upload's frames so far; nil while none is buffered
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

	infers *detect.InferMemo // nil: the student infers every frame itself
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

// reporter is a cloud.Device that takes the edge's telemetry with the
// upload itself. A live cloud runs its controller when a batch arrives, so
// the (α, λ̄) report has to travel with the frames; the simulator's devices
// take it at delivery, through UpdateRate. A System whose registration is
// a reporter uploads through EnqueueReport and still calls UpdateRate at
// delivery, with the same α and λ̄, so that the device can hand back the
// rate its cloud sent.
type reporter interface {
	// EnqueueReport is Enqueue with the telemetry the batch carries.
	EnqueueReport(frames []*video.Frame, alpha, lambda, now float64, cb func(cloud.BatchResult)) bool
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
	// NoSeries, when set, keeps no Results.RateSeries, SessionTimes or
	// FPSSeries: the owner folds each Results into an aggregate that reads
	// none of them, as an AggregateOnly Cluster does. The FPS tracker
	// folds its average and keeps no runs. The observer still sees every
	// rate command and session.
	NoSeries bool
	// InferMemo, when set, is shared by the deployments stepped on one
	// Frames source: a frame that a student with the same weights version,
	// compute tier and MinConfidence already inferred is not inferred
	// again. The owner resets it before each frame. The shared result is
	// read-only: InferFrame's metric collection and α accumulators only
	// read it.
	InferMemo *detect.InferMemo
}

// NewSystem builds a deployment for the config. If cfg.Pretrained is nil the
// student is pretrained from the profile's offline dataset (deterministic in
// the profile seed, so all strategies deploy the identical model).
func NewSystem(cfg Config) (*System, error) {
	return NewSystemOpts(&cfg, SystemOptions{})
}

// NewSystemOpts is NewSystem with shared-infrastructure options, on a
// borrowed config: the System keeps cfg for the whole run and only reads
// it, and the caller must not write it until the run is over. A fleet of
// devices lends its configs in place, so no device holds a copy.
func NewSystemOpts(cfg *Config, opts SystemOptions) (*System, error) {
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
	sched := opts.Scheduler
	if sched == nil {
		sched = sim.NewScheduler()
	}
	s := &System{
		cfg:       cfg,
		rng:       rand.New(rand.NewPCG(cfg.Seed, RNGStreamRun)),
		sched:     sched,
		collector: metrics.NewCollector(),
		ws:        newWorkspace(cfg.PerfClock),
		fleet:     cfg.Fidelity == FidelityEvents,
		uploads:   desc.Traits.Uploads,
		noSeries:  opts.NoSeries,
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
	s.dt = 1 / cfg.Profile.FPS
	s.nFrames = int(cfg.DurationSec * cfg.Profile.FPS)
	s.device = edge.NewDevice(cfg.Device)
	if s.noSeries {
		s.device.FPS().DropSeries()
	}

	s.cloudSvc = opts.Cloud
	if s.cloudSvc == nil {
		tier := cloud.NewTier(cfg.Cloud)
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
	s.reporter, _ = dev.(reporter)

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
		s.infers = opts.InferMemo
	}

	rate := cfg.SampleRate
	if cfg.adaptive() {
		rate = s.cloudDev.Rate()
	}
	s.sampler = edge.NewSampler(rate)

	s.nextWindowEnd = windowSec

	s.strategy = desc.New()
	if err := s.strategy.Init(s); err != nil {
		return nil, err
	}
	return s, nil
}

// RunContext plays the whole stream, honouring context cancellation between
// plays, and returns the aggregated results. A play is one frame at full
// fidelity. At events fidelity it runs up to the next upload, with the
// frames between local events played as spans, so a blocking run does not
// pay a one-frame span per frame as a Step loop does. Both play the same
// frames and events in the same order (TestRunContextMatchesStepLoop).
func (s *System) RunContext(ctx context.Context) (*Results, error) {
	for s.play() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// play advances the deployment by one play (see RunContext) and reports
// whether frames remain. Its limit lies just past the last frame, so events
// due after it wait for Finish, as they do after the last Step.
func (s *System) play() bool {
	if !s.fleet {
		return s.Step()
	}
	if _, ok := s.NextFrameTime(); !ok {
		return false
	}
	s.advanceTo(math.Nextafter(float64(s.nFrames-1)*s.dt, math.Inf(1)))
	return s.frameIdx < s.nFrames
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
	if s.fleet {
		s.fleetSpan(s.frameIdx + 1)
	} else {
		s.fullFrame(t)
	}
	return s.frameIdx < s.nFrames
}

// fullFrame runs one full-fidelity camera frame at its due time: it renders
// the frame and dispatches the strategy's OnFrame hook.
func (s *System) fullFrame(t float64) {
	s.results.FramesTotal++
	f := s.frames.Next()
	s.strategy.OnFrame(f, t, s.dt)
	s.frameIdx++
	s.emitWindows(t)
}

// fleetSpan is the events-fidelity frame step. It plays frames frameIdx …
// end−1, which no local event separates, as one span, and stops early after
// a frame that flushes: the device compute model ticks, the sampler
// decides, and only sampled frames are materialized — sparsely, without
// feature tensors — for upload. The strategy's OnFrame hook is bypassed
// (its cloud-batch and train-due hooks still fire), so every
// events-fidelity strategy shares this canonical tick+sample path.
//
// Within a span a frame's tick and its sample touch disjoint state, and
// only the frame the sampler stops at (an acceptance or an expired wait)
// can change the buffer or flush. So TickFrames and Scan play the frames up
// to that stop, each holding its running sums in locals, and the stop frame
// then runs the buffer and flush steps one frame at a time. The scheduler
// clock follows the frames played: it reads the stop frame's time when the
// flush posts, and the last frame's when the span ends.
func (s *System) fleetSpan(end int) {
	for s.frameIdx < end {
		first := s.frameIdx
		stop, accepted := end, false
		if s.uploads {
			since, wait := 0.0, math.Inf(1) // an empty buffer has no deadline
			if s.buf != nil {
				since, wait = s.buf.first, s.cfg.UploadMaxWaitSec
			}
			stop, accepted = s.sampler.Scan(first, end, s.dt, since, wait)
		}
		played := min(stop+1, end)
		s.results.FramesProcessed += s.device.TickFrames(first, played-first, s.dt)
		s.results.FramesTotal += played - first
		s.frameIdx = played
		if stop == end {
			break
		}
		t := float64(stop) * s.dt
		if accepted {
			s.bufferMeta(stop, t)
		}
		if s.flushDue(t) {
			s.frameIdx = stop // the wake check reads the flushing frame
			s.sched.AdvanceTo(t)
			s.flushBuffer(t)
			s.frameIdx = played
			s.emitWindows(t)
			return
		}
	}
	last := float64(s.frameIdx-1) * s.dt
	s.sched.AdvanceTo(last)
	s.emitWindows(last)
}

// spanEnd returns the index of the first frame from frameIdx on that is
// due at or after bound: float64(k)·dt ≥ bound, the comparison
// NextFrameTime's times make. It is never past the stream's end and never
// before frameIdx+1, since the caller has checked that frame frameIdx is
// due before bound.
func (s *System) spanEnd(bound float64) int {
	end := s.nFrames
	if c := math.Ceil(bound / s.dt); c < float64(end) {
		end = max(int(c), s.frameIdx+1)
	}
	// The division rounds: step to the first frame time at or past bound.
	for end > s.frameIdx+1 && float64(end-1)*s.dt >= bound {
		end--
	}
	for end < s.nFrames && float64(end)*s.dt < bound {
		end++
	}
	return end
}

// NextEventTime implements the fleet engine's Actor contract: a lower bound
// on the virtual time at which this deployment next posts to the shared
// timeline or runs an eager local event. At full fidelity that is the next
// camera frame or eager event, whichever is first. An events-fidelity
// deployment reports its wake frame instead of its next frame, so the engine
// leaves it asleep across the frames that cannot upload; AdvanceTo replays
// them when the device is next selected. Quiet events (label deposits,
// training sessions, rate commands that raise no rate; see postRate) wait
// for that visit, and only once no frame and no eager event is left is the
// next of them the key. ok is false once nothing remains.
func (s *System) NextEventTime() (float64, bool) {
	ft, fok := s.NextFrameTime()
	if fok && s.fleet {
		ft = float64(s.wakeFrame) * s.dt
	}
	et, eok := s.sched.NextEagerTime()
	if !fok && !eok {
		et, eok = s.sched.NextTime()
	}
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
			if s.fleet {
				// Every frame before the next local event and the limit
				// plays as one span.
				bound := limit
				if et, ok := s.sched.NextTime(); ok && et < bound {
					bound = et
				}
				s.fleetSpan(s.spanEnd(bound))
			} else {
				s.fullFrame(ft)
			}
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
// first frame, from frameIdx on, on which fleetSpan can flush the sample
// buffer — and never later than the last frame, so the engine still runs
// the whole stream before Finish. It reads device-local state only (sampler
// credit and rate, the buffer and its first capture time): whatever the
// cloud does to that state arrives as a local scheduler event. An eager one
// is in NextEventTime beside the wake; a quiet rate command is not, so the
// bound takes the sampler at the highest rate still to come (wakeRate),
// which accepts no frame later than any lower rate would. A bound that is
// early costs one extra visit; fleetSpan decides every flush itself, at the
// frame it happens on.
//
// A flush needs a full buffer or an expired wait. The buffer cannot fill
// before the sampler has accepted the frames it lacks. A buffer that holds
// a frame expires at the first frame time t with t−first ≥ UploadMaxWaitSec
// (first is buf.first, its oldest frame's capture time), which is frame
// ⌈(first+wait)/dt⌉ up to rounding;
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
	rate := s.wakeRate()
	lacks := s.cfg.UploadFrames - s.buffered()
	wake := next + s.sampler.SkipBefore(lacks, s.dt, rate)
	var expiry float64
	if s.buf != nil {
		expiry = math.Floor((s.buf.first+s.cfg.UploadMaxWaitSec)/s.dt) - 1
	} else {
		expiry = next + s.sampler.SkipBefore(1, s.dt, rate) + math.Floor(s.cfg.UploadMaxWaitSec/s.dt) - 1
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

// wakeRate is the sampling rate predictWake predicts with: the sampler's,
// or the highest quiet rate command still to run if that is higher.
// Between two predictions the device runs no event, so it is also the rate
// the current wake frame was predicted with.
func (s *System) wakeRate() float64 { return max(s.sampler.Rate(), s.quietRate) }

// Finish drains the scheduler and assembles the Results. A fully-played
// stream settles at the configured duration; a truncated one (stepped
// partway, then finished) settles at the elapsed stream time, so Duration
// and bandwidth rates describe what actually ran. It is idempotent.
func (s *System) Finish() *Results {
	r := s.FinishScalars()
	if r.FPSSeries == nil && !s.noSeries { // Series is never nil once built
		r.FPSSeries = s.device.FPS().Series()
	}
	return r
}

// FinishScalars is Finish for a caller that folds the Results into an
// aggregate and keeps nothing else of them, as an AggregateOnly Cluster
// does: it leaves FPSSeries, one float64 per second of stream, unbuilt. A
// later Finish builds it, unless SystemOptions.NoSeries kept no runs.
func (s *System) FinishScalars() *Results {
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

// Config returns the run configuration. It is the config the runner lent
// the System (see NewSystemOpts), so it is read-only: a strategy that
// wrote it would write its caller's.
func (s *System) Config() *Config { return s.cfg }

// Scheduler exposes the virtual-time event scheduler. What a strategy
// posts with At is eager: under the fleet engine the device is woken for
// it. Quiet is for an event that cannot bring the device's next upload
// forward, as the stock strategies post label deposits and training
// sessions.
func (s *System) Scheduler() *sim.Scheduler { return s.sched }

// CloudService exposes the labeling backend this deployment uploads to
// (private by default; shared under a Cluster).
func (s *System) CloudService() cloud.Backend { return s.cloudSvc }

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
// device has cycles for it, recording detections and the α estimate. With
// an InferMemo the result may be another deployment's; it is only read.
func (s *System) InferFrame(f *video.Frame, t, dt float64) {
	if !s.device.Tick(t, dt) {
		return
	}
	started := s.ws.Perf.Now()
	res, shared := s.infers.Infer(s.student, f)
	if shared {
		s.ws.Perf.InferShared++
		checkSharedInfer(s.student, f, res)
	}
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
	if s.sampler.Sample(t) {
		s.bufferSample(f, t)
	}
	if s.flushDue(t) {
		s.flushBuffer(t)
	}
}

// flushBuffer encodes and uploads the buffered sample frames together with
// the edge telemetry (α since last report, λ usage).
func (s *System) flushBuffer(t float64) {
	s.wakeCheck.flushing(s)
	cfg := s.cfg
	u := s.buf
	s.buf = nil

	encSec := cfg.Codec.EncodeSeconds(u.size())
	s.device.BeginEncoding(t + encSec)

	bytes := netsim.TelemetryBytes()
	for _, f := range u.frames {
		bytes += cfg.Codec.SampledFrameBytes(f.Complexity)
	}
	for _, m := range u.metas {
		bytes += cfg.Codec.SampledFrameBytes(m.Complexity)
	}
	s.usage.AddUp(bytes)

	u.alpha = s.drainAlpha()
	u.lambda = s.device.DrainUsageReport()
	// The upload hits the network once encoding finishes; a time-varying
	// uplink trace (or the shared medium) prices it at that moment, not at
	// the flush. Delivery lands on the shared timeline: privately that is
	// the local scheduler (bit-identical to the classic path); under the
	// fleet engine it is this device's Outbox.
	start := t + encSec
	if s.uplink != nil {
		s.uplink.Send(bytes, start, u.deliver)
	} else {
		s.shared.At(start+cfg.UplinkTransfer(bytes, start), u.deliver)
	}
	s.emitted = true
}

// cloudReceive is the cloud's handler for an uploaded sample batch: it
// enqueues the batch on the labeling engine, which either drops it at a
// full queue (nothing more happens — no labels, no rate command) or
// eventually labels it and calls back into onBatchLabeled. Under the
// default arrival-order policy the callback runs synchronously at arrival;
// a reordering policy defers it to the dispatch event that serves the
// batch. A reporter device gets the batch's telemetry with it. A dropped
// upload is free at once; a labeled one once its callback has returned.
//
// A packed (events-fidelity) batch is unpacked into a scratch block for the
// length of the call: the cloud reads an analytic device's frames only
// during Enqueue. If the callback ran inside the call, it released the
// upload, and only the block is left to give back.
func (s *System) cloudReceive(u *upload, now float64) {
	frames, blk := u.frames, (*frameBlock)(nil)
	if u.packed() {
		blk = s.unpack(u.metas)
		frames, u.blk = blk.frames, blk
	}
	var ok bool
	if s.reporter != nil {
		ok = s.reporter.EnqueueReport(frames, u.alpha, u.lambda, now, u.labeled)
	} else {
		ok = s.cloudDev.Enqueue(frames, now, u.labeled)
	}
	if blk != nil {
		if !blk.delivered {
			u.blk = nil
		}
		blk.put()
	}
	if !ok {
		u.release()
	}
}

// onBatchLabeled handles one labeled batch: φ accounting and the controller
// update are shared substrate; the labels are then handed to the strategy's
// OnCloudBatch hook. The frames are the upload's, reused once it returns.
func (s *System) onBatchLabeled(frames []*video.Frame, alpha, lambda float64, batch cloud.BatchResult) {
	cfg := s.cfg
	for _, p := range batch.Phis {
		s.phiAll.Add(p)
	}

	if rate, ok := s.cloudDev.UpdateRate(batch.PhiMean, alpha, lambda); ok {
		s.usage.AddDown(netsim.RateCommandBytes())
		s.postRate(batch.Done+cfg.DownlinkTransfer(netsim.RateCommandBytes(), batch.Done), rate)
	}

	s.strategy.OnCloudBatch(frames, batch.Labels, batch.Done)
}

// postRate posts a rate command that reaches the device at t. A command
// whose rate is at most wakeRate cannot bring the device's next upload
// forward, so it is posted quiet: at a rate no higher the sampler accepts
// no frame sooner (Sampler.SkipBefore is monotone in the rate), and an
// empty buffer's wait starts no sooner. predictWake counts it until it has
// run, so no later prediction outruns it either. A rise is eager: the
// engine wakes the device when it lands and the device predicts again.
func (s *System) postRate(t, rate float64) {
	if rate > s.wakeRate() {
		s.sched.At(t, func(now float64) { s.applyRate(now, rate) })
		return
	}
	s.quietRates++
	s.quietRate = max(s.quietRate, rate)
	s.sched.Quiet(t, (*rateCommand)(s), rate)
}

// rateCommand is a System as the handler of its quiet rate commands, which
// carry the rate as their argument.
type rateCommand System

func (c *rateCommand) Handle(now, rate float64) {
	s := (*System)(c)
	if s.quietRates--; s.quietRates == 0 {
		s.quietRate = 0
	}
	s.applyRate(now, rate)
}

// applyRate applies a rate command that reached the device at now.
func (s *System) applyRate(now, rate float64) {
	s.sampler.SetRate(rate)
	pt := RatePoint{Time: now, Rate: rate}
	if !s.noSeries {
		s.results.RateSeries = append(s.results.RateSeries, pt)
	}
	if s.obs != nil {
		s.obs.OnRateCommand(pt)
	}
}

// DepositLabels converts labeled frames into training regions and fires the
// strategy's OnTrainDue hook once a full batch has accumulated.
func (s *System) DepositLabels(frames []*video.Frame, labels [][]detect.TeacherLabel, now float64) {
	if !s.fleet {
		s.accumulateBatch(frames, labels)
	}
	s.depositCount(len(frames), now)
}

// labelDeposit is a System as the handler of its events-fidelity label
// deposits, which carry the labeled frame count as their argument.
type labelDeposit System

func (d *labelDeposit) Handle(now, frames float64) { (*System)(d).depositCount(int(frames), now) }

// depositCount counts n labeled frames toward the next training batch and
// fires OnTrainDue once a full batch has accumulated. Events fidelity trains
// nothing and deposits only this count, so the session cadence stays
// faithful without any regions — sparse frames carry no features to train
// on.
func (s *System) depositCount(n int, now float64) {
	s.batchFrames += n
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
	bg := s.cfg.Profile.BackgroundClass()
	for i, f := range frames {
		all := detect.BuildTrainingBatch(f, labels[i], bg)
		s.pendingBatch = append(s.pendingBatch, s.subsample(all)...)
	}
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
// price-only query would eat the cold-session discount. The price is the
// same on both compute tiers, at full and at events fidelity.
func (s *System) ClaimSessionCost(tc detect.TrainerConfig) edge.SessionCost {
	first := s.sessionsSched == 0
	s.sessionsSched++
	replayVirtual := canonicalReplay
	if first {
		replayVirtual = 0
	}
	return s.cfg.Cost.Session(tc, first, canonicalBatch, replayVirtual)
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
	if !s.noSeries {
		s.results.SessionTimes = append(s.results.SessionTimes, rec)
	}
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
