package cloud

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

func TestControllerClampsToRateBounds(t *testing.T) {
	cfg := DefaultControllerConfig()
	c := NewController(cfg)
	// Extreme inputs must never leave [RMin, RMax].
	f := func(phi, alpha, lambda float64) bool {
		r := c.Update(sanitize(phi), sanitize(alpha), sanitize(lambda))
		return r >= cfg.RMin && r <= cfg.RMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerRaisesRateOnHighPhi(t *testing.T) {
	cfg := DefaultControllerConfig()
	c := NewController(cfg)
	base := c.Rate()
	r := c.Update(cfg.PhiTarget+0.2, cfg.AlphaTarget+0.1, 0.5) // labels churning above target
	if r <= base {
		t.Fatalf("φ above target should raise the rate: %v -> %v", base, r)
	}
	c2 := NewController(cfg)
	r2 := c2.Update(cfg.PhiTarget-0.3, cfg.AlphaTarget+0.1, 0.5)
	if r2 >= base {
		t.Fatalf("φ below target should lower the rate: %v -> %v", base, r2)
	}
}

func TestControllerRaisesRateOnLowAlpha(t *testing.T) {
	c := NewController(DefaultControllerConfig())
	base := c.Rate()
	r := c.Update(DefaultControllerConfig().PhiTarget, 0.2, 0.5) // inaccurate
	if r <= base {
		t.Fatalf("low α should raise the rate: %v -> %v", base, r)
	}
}

func TestControllerDecaysOnStationaryAccurateScene(t *testing.T) {
	c := NewController(DefaultControllerConfig())
	for i := 0; i < 20; i++ {
		c.Update(0.02, 0.95, 0.5) // stationary, accurate, steady load
	}
	if c.Rate() > 0.3 {
		t.Fatalf("stationary accurate scene should drive the rate down, got %v", c.Rate())
	}
	if c.Rate() < DefaultControllerConfig().RMin {
		t.Fatal("rate below RMin")
	}
}

func TestControllerConvergesNearTargets(t *testing.T) {
	// At φ exactly on target, high α and steady λ, the rate should be
	// approximately preserved (R(φ)=0, R(α)=0, R(λ)=r_t).
	cfg := DefaultControllerConfig()
	c := NewController(cfg)
	c.Update(cfg.PhiTarget, cfg.AlphaTarget+0.1, 0.5)
	r1 := c.Rate()
	r2 := c.Update(cfg.PhiTarget, cfg.AlphaTarget+0.1, 0.5)
	if math.Abs(r2-r1) > 1e-9 {
		t.Fatalf("on-target inputs should hold the rate: %v -> %v", r1, r2)
	}
}

func TestControllerLambdaTermScalesBaseRate(t *testing.T) {
	cfg := DefaultControllerConfig()
	c := NewController(cfg)
	c.Update(cfg.PhiTarget, 1, 0.5)
	r1 := c.Rate()
	// λ jumps by +0.3: R(λ) = (1+0.3)·r_t per Eq. (3).
	r2 := c.Update(cfg.PhiTarget, 1, 0.8)
	want := math.Min(cfg.RMax, 1.3*r1)
	if math.Abs(r2-want) > 1e-9 {
		t.Fatalf("λ term wrong: got %v want %v", r2, want)
	}
}

func TestLabelerPhiLowForStationaryScene(t *testing.T) {
	p := video.DETRACProfile()
	p.Script = []video.Segment{{DomainIndex: 0, Duration: 3600}}
	p.TransitionSec = 0
	rng := rand.New(rand.NewPCG(1, 1))
	lab := NewLabeler(detect.NewTeacher(p, rng), DefaultLabelerConfig())
	stream := video.NewStream(p, 1)

	var phis []float64
	for i := 0; i < 90; i++ { // 3 seconds of frames, label every 15th (0.5s apart)
		f := stream.Next()
		if i%15 != 0 {
			continue
		}
		res := lab.LabelFrame(f)
		if i > 0 {
			phis = append(phis, res.Phi)
		}
	}
	var mean float64
	for _, v := range phis {
		mean += v
	}
	mean /= float64(len(phis))
	if mean > 0.6 {
		t.Fatalf("stationary scene φ should be low-ish, got %v", mean)
	}
	for _, v := range phis {
		if v < 0 || v > 1 {
			t.Fatalf("φ out of [0,1]: %v", v)
		}
	}
}

func TestLabelerPhiFirstFrameZero(t *testing.T) {
	p := video.DETRACProfile()
	rng := rand.New(rand.NewPCG(2, 2))
	lab := NewLabeler(detect.NewTeacher(p, rng), DefaultLabelerConfig())
	res := lab.LabelFrame(video.NewStream(p, 2).Next())
	if res.Phi != 0 {
		t.Fatalf("first frame φ must be 0, got %v", res.Phi)
	}
	if res.ServiceSec <= 0 {
		t.Fatal("labeling must consume teacher time")
	}
}

func TestPhiGrowsWithSamplingInterval(t *testing.T) {
	// The controller's negative-feedback property: the longer the gap
	// between labeled frames, the more the scene (tracks, positions) has
	// changed, so φ must grow with the sampling interval. This is what
	// makes Eq. (2) self-stabilising — low rates push φ above target,
	// which pushes the rate back up.
	p := video.DETRACProfile()
	p.Script = []video.Segment{{DomainIndex: 0, Duration: 3600}}
	p.TransitionSec = 0

	phiAtStride := func(stride int) float64 {
		rng := rand.New(rand.NewPCG(3, 3))
		lab := NewLabeler(detect.NewTeacher(p, rng), DefaultLabelerConfig())
		stream := video.NewStream(p, 3)
		var sum float64
		n := 0
		for i := 0; i < 3600; i++ { // 2 minutes
			f := stream.Next()
			if i%stride != 0 {
				continue
			}
			res := lab.LabelFrame(f)
			if i == 0 {
				continue
			}
			sum += res.Phi
			n++
		}
		return sum / float64(n)
	}

	fast := phiAtStride(15) // 2 fps sampling
	slow := phiAtStride(90) // 0.33 fps sampling
	if slow <= fast {
		t.Fatalf("φ should grow with the sampling interval: 2fps=%v 0.33fps=%v", fast, slow)
	}
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 10)
}

func serviceFrames(t testing.TB, n int) []*video.Frame {
	t.Helper()
	p := video.DETRACProfile()
	stream := video.NewStream(p, 1)
	out := make([]*video.Frame, 0, n)
	for i := 0; len(out) < n; i++ {
		f := stream.Next()
		if i%15 == 0 {
			out = append(out, f)
		}
	}
	return out
}

// oneReplica builds a one-replica tier. Under the default router, with no
// admission control, it hands every batch to its replica unchanged, so the
// tests of a replica's scheduling engine drive it through the tier.
func oneReplica(cfg ServiceConfig) *Tier { return NewTier(TierConfig{Service: cfg}) }

// onReplica mints td's registration on its tier's first replica, as the
// tier does when it first routes one of td's batches there, for the tests
// that drive the replica's engine directly.
func onReplica(td *TierDevice) *ServiceDevice {
	reg := td.tier.replicas[0].registerRouted(td)
	td.regs[0] = reg
	return reg
}

// label runs one batch through d.Enqueue under an arrival-order policy,
// where the callback fires before Enqueue returns; a dropped batch comes
// back as BatchResult{Dropped: true}.
func label(d *TierDevice, frames []*video.Frame, now float64) BatchResult {
	res, called := BatchResult{Dropped: true}, false
	if d.Enqueue(frames, now, func(r BatchResult) { res, called = r, true }) && !called {
		panic("label: the replica deferred the batch; use Enqueue under a reordering policy")
	}
	return res
}

// TestServiceSerialisesSharedTeacher: batches from different devices queue
// on the one teacher pipeline; a batch arriving mid-service starts when the
// previous one finishes, and the delay is attributed to the right device.
func TestServiceSerialisesSharedTeacher(t *testing.T) {
	svc := oneReplica(ServiceConfig{})
	a := newTierDevice(t, svc, "a", 1, DeviceOptions{})
	b := newTierDevice(t, svc, "b", 2, DeviceOptions{})
	frames := serviceFrames(t, 5)
	lat := DefaultLabelerConfig().TeacherLatencySec

	ra := label(a, frames, 10)
	if ra.QueueDelaySec != 0 || ra.Start != 10 {
		t.Fatalf("idle service must start immediately: %+v", ra)
	}
	if want := 10 + 5*lat; math.Abs(ra.Done-want) > 1e-12 {
		t.Fatalf("done %v, want %v", ra.Done, want)
	}
	rb := label(b, frames, 10.01) // arrives while a's batch is in service
	if rb.Start != ra.Done {
		t.Fatalf("contending batch must wait: start %v, want %v", rb.Start, ra.Done)
	}
	if math.Abs(rb.QueueDelaySec-(ra.Done-10.01)) > 1e-12 {
		t.Fatalf("queue delay %v, want %v", rb.QueueDelaySec, ra.Done-10.01)
	}
	if got := svc.Stats(); got.Batches != 2 || got.QueueDelayMaxSec != rb.QueueDelaySec {
		t.Fatalf("aggregate stats wrong: %+v", got)
	}
	if a.Stats().QueueDelayMaxSec != 0 || b.Stats().QueueDelayMaxSec != rb.QueueDelaySec {
		t.Fatal("delay attributed to the wrong device")
	}
}

// TestServiceQueueCapDrops: with QueueCap outstanding batches, a further
// arrival is dropped — no labels, no φ, counted per device.
func TestServiceQueueCapDrops(t *testing.T) {
	svc := oneReplica(ServiceConfig{QueueCap: 1})
	a := newTierDevice(t, svc, "a", 1, DeviceOptions{})
	b := newTierDevice(t, svc, "b", 2, DeviceOptions{})
	frames := serviceFrames(t, 5)

	ra := label(a, frames, 0)
	if ra.Dropped {
		t.Fatal("first batch must be admitted")
	}
	rb := label(b, frames, 0.01) // the first batch is still outstanding
	if !rb.Dropped || rb.Labels != nil {
		t.Fatalf("over-cap batch must be dropped: %+v", rb)
	}
	if got := b.Stats().DroppedBatches; got != 1 {
		t.Fatalf("device b drops = %d, want 1", got)
	}
	// After the first batch completes, capacity frees up again.
	rb2 := label(b, frames, ra.Done+0.01)
	if rb2.Dropped {
		t.Fatal("batch after the queue drained must be admitted")
	}
	if got := svc.Stats(); got.Batches != 2 || got.DroppedBatches != 1 {
		t.Fatalf("aggregate stats wrong: %+v", got)
	}
}

// TestServicePerDevicePhiContinuity: each device's φ stream compares
// against its own previous batch, not against other devices' frames.
func TestServicePerDevicePhiContinuity(t *testing.T) {
	shared := oneReplica(ServiceConfig{})
	a := newTierDevice(t, shared, "a", 1, DeviceOptions{})
	label(newTierDevice(t, shared, "b", 2, DeviceOptions{}), serviceFrames(t, 3), 0)

	private := oneReplica(ServiceConfig{})
	solo := newTierDevice(t, private, "solo", 1, DeviceOptions{})

	frames := serviceFrames(t, 6)
	for i := 0; i < 2; i++ {
		got := label(a, frames[i*3:(i+1)*3], float64(100*i))
		want := label(solo, frames[i*3:(i+1)*3], float64(100*i))
		for j := range got.Phis {
			if got.Phis[j] != want.Phis[j] {
				t.Fatalf("φ stream polluted by another device: batch %d frame %d: %v != %v",
					i, j, got.Phis[j], want.Phis[j])
			}
		}
	}
}

// TestTierDeviceWithoutController: a device registered without a
// controller config is not adaptive, reports rate 0, turns every rate
// report away and still labels.
func TestTierDeviceWithoutController(t *testing.T) {
	d := newTierDevice(t, oneReplica(ServiceConfig{}), "fixed", 1, DeviceOptions{})
	if d.Adaptive() {
		t.Fatal("device registered without a controller reports Adaptive")
	}
	if r := d.Rate(); r != 0 {
		t.Fatalf("Rate without a controller = %v, want 0", r)
	}
	if r, ok := d.UpdateRate(0.5, 0.5, 0.5); ok || r != 0 {
		t.Fatalf("UpdateRate without a controller: %v %v", r, ok)
	}
	res := label(d, serviceFrames(t, 2), 0)
	if res.Dropped || len(res.Labels) != 2 {
		t.Fatalf("labeling failed without controller: %+v", res)
	}
}
