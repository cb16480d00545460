package rpc

import (
	"errors"
	"fmt"
	"math"

	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/detect"
	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

// Backend is a cloud.Backend whose devices label on a live cloud server: a
// core.System built on it is the live edge, running the simulator's own
// code over real labels.
//
// Clock rule: the edge keeps the simulator's virtual clock. Each upload is
// a blocking round trip, and the batch's queueing and completion are
// priced on a private cloud.Tier built from the run's tier description.
// That tier only prices — the server decides admission — so it has no
// queue bound and no admission control, and its devices register analytic.
// The price equals what the simulator's executed tier charges, because a
// labeler charges its per-frame teacher latency whatever the labels are.
// From the server come the labels, the per-frame φs and the new rate; a
// 429 is a dropped batch.
//
// Each device registers with the server before its first upload, with the
// run's cloud-facing half: the profile and seed its teacher runs on, its
// SLO class and its labeler and controller configs. So the server labels
// and rate-controls it as the simulator's tier would.
//
// A Backend and its devices are driven from one event loop, as the
// simulator's backends are.
type Backend struct {
	baseURL string
	profile string
	seed    uint64
	priced  *cloud.Tier
	drops   int   // batches the server refused with 429, all devices
	err     error // the first failed upload; nothing is sent after it
}

// NewBackend returns a backend whose devices upload to the cloud at
// baseURL. cfg is the run: its tier prices the uploads, its profile and seed
// go into each registration. tl is the run's scheduler, on which the
// private pricing tier dispatches.
func NewBackend(baseURL string, cfg core.Config, tl sim.Timeline) (*Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tc := cfg.Cloud
	tc.Service.QueueCap = 0
	tc.AdmitRatePerSec, tc.AdmitBurst = 0, 0
	priced := cloud.NewTier(tc)
	priced.Bind(tl)
	return &Backend{baseURL: baseURL, profile: cfg.Profile.Name, seed: cfg.Seed, priced: priced}, nil
}

// Err returns the first upload that failed for any reason but
// backpressure, naming the cloud's URL, or nil. Once it is set no device
// uploads again, so a run over a dead cloud ends its uploads at the first
// failure; the caller reads Err to stop the run.
func (b *Backend) Err() error { return b.err }

func (b *Backend) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// RegisterDevice implements cloud.Backend: it registers the device on the
// pricing tier, then with the server (Client.Register). The teacher is only
// the pricing tier's (its analytic φ is replaced by the server's); an
// events-fidelity device, which has no frames to upload, is refused before
// the server hears of it.
func (b *Backend) RegisterDevice(id string, teacher *detect.Teacher, labelerCfg cloud.LabelerConfig, ctrlCfg *cloud.ControllerConfig, opts cloud.DeviceOptions) (cloud.Device, error) {
	if opts.Analytic {
		return nil, errors.New("rpc: a live cloud labels uploaded frames; events fidelity uploads metadata only, so run the edge at full fidelity")
	}
	if id == "" {
		return nil, errors.New("rpc: a live device needs an id (Config.DeviceID)")
	}
	opts.Analytic = true
	priced, err := b.priced.RegisterDevice(id, teacher, labelerCfg, nil, opts)
	if err != nil {
		return nil, err
	}
	client := NewClient(b.baseURL, id)
	reg := Registration{DeviceID: id, Profile: b.profile, Seed: b.seed, SLOClass: opts.SLOClass, Labeler: labelerCfg, Controller: ctrlCfg}
	if err := client.Register(&reg); err != nil {
		return nil, err
	}
	d := &device{be: b, client: client, slo: opts.SLOClass, priced: priced}
	if ctrlCfg != nil {
		d.adaptive = true
		d.rate = cloud.NewController(*ctrlCfg).Rate()
	}
	return d, nil
}

// Stats implements cloud.Backend: the pricing tier's statistics, with the
// server's refusals counted as drops.
func (b *Backend) Stats() cloud.QueueStats {
	st := b.priced.Stats()
	st.DroppedBatches += b.drops
	return st
}

// device is one live device: a cloud.Device, with the EnqueueReport a
// core.System uploads through, whose uploads go to the server and whose
// prices come from the backend's tier.
type device struct {
	be       *Backend
	client   *Client
	slo      string
	priced   cloud.Device
	adaptive bool
	rate     float64
	drops    int
	// sent is the batch whose delivery is running: what went up with it
	// and the rate that came back.
	sent *sentBatch
}

type sentBatch struct {
	phiMean, alpha, lambda, rate float64
}

func (d *device) ID() string { return d.client.DeviceID }

// Enqueue refuses: a live upload carries its telemetry (EnqueueReport).
// The refusal is the backend's error, which ends the run.
func (d *device) Enqueue(frames []*video.Frame, now float64, cb func(cloud.BatchResult)) bool {
	d.be.fail(fmt.Errorf("rpc: device %q: Enqueue carries no (α, λ̄); a live cloud takes them with the upload (EnqueueReport)", d.ID()))
	return false
}

// EnqueueReport is Enqueue with the batch's telemetry: it uploads both and
// waits for the reply, then prices the batch on the backend's tier, whose
// callback delivers the server's labels and φs. The
// server labels a device's batches in arrival order and the tier completes
// them in arrival order too (DESIGN.md §8), so each teacher label and φ is
// the one the simulator would compute at completion.
func (d *device) EnqueueReport(frames []*video.Frame, alpha, lambda, now float64, cb func(cloud.BatchResult)) bool {
	if d.be.err != nil {
		return false
	}
	req := LabelRequest{DeviceID: d.ID(), SLOClass: d.slo, Alpha: alpha, Lambda: lambda, Frames: make([]video.Frame, len(frames))}
	for i, f := range frames {
		req.Frames[i] = *f
	}
	resp, err := d.client.label(&req)
	if errors.Is(err, ErrBackpressure) {
		d.drops++
		d.be.drops++
		return false
	}
	if err != nil {
		d.be.fail(err)
		return false
	}
	sent := sentBatch{phiMean: resp.PhiMean, alpha: req.Alpha, lambda: req.Lambda, rate: resp.NewRate}
	// The pricing tier has no queue bound and no admission control: it
	// admits every batch.
	return d.priced.Enqueue(frames, now, func(res cloud.BatchResult) {
		res.Labels, res.Phis, res.PhiMean = resp.Labels, resp.Phis, resp.PhiMean
		prev := d.sent
		d.sent = &sent
		cb(res)
		d.sent = prev
	})
}

func (d *device) Adaptive() bool { return d.adaptive }

func (d *device) Rate() float64 { return d.rate }

// UpdateRate returns the rate the server sent with the batch being
// delivered; the server already ran its controller on the batch's
// telemetry. It panics when no delivery is running, or when its arguments
// are not the φ̄ that came back and the α and λ̄ that went up: either means
// the caller no longer keeps the sim/live contract.
func (d *device) UpdateRate(phiMean, alpha, lambda float64) (float64, bool) {
	s := d.sent
	if s == nil {
		panic(fmt.Sprintf("rpc: device %q: UpdateRate outside a batch's delivery", d.ID()))
	}
	if !sameBits(phiMean, s.phiMean) || !sameBits(alpha, s.alpha) || !sameBits(lambda, s.lambda) {
		panic(fmt.Sprintf("rpc: device %q: UpdateRate(φ̄ %v, α %v, λ̄ %v) for a batch that carried φ̄ %v, α %v, λ̄ %v",
			d.ID(), phiMean, alpha, lambda, s.phiMean, s.alpha, s.lambda))
	}
	if !d.adaptive {
		return 0, false
	}
	d.rate = s.rate
	return d.rate, true
}

// Stats returns the device's priced statistics, with the server's
// refusals counted as drops.
func (d *device) Stats() cloud.QueueStats {
	st := d.priced.Stats()
	st.DroppedBatches += d.drops
	return st
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
