package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

// ServerOptions shapes the cloud server's labeling engine.
type ServerOptions struct {
	// QueueCap bounds each replica's labeling queue exactly as in the
	// simulation (batches in modeled service plus waiting); a request
	// arriving at a full tier is rejected with 429 and a Retry-After
	// header. 0 means unbounded.
	QueueCap int
	// Workers is the teacher pipeline pool size of each replica's service
	// model. 0 means 1.
	Workers int
	// Replicas is the tier's teacher replica count. 0 or 1 means one.
	Replicas int
	// Router names the replica router dispatching label requests
	// ("round-robin", "least-loaded", "domain-affinity", or any registered
	// router). Empty means round-robin.
	Router string
	// AdmitRatePerSec, when positive, enables token-bucket admission
	// control: the sustained request rate per second. Rejections answer 429
	// with a bucket-aware Retry-After.
	AdmitRatePerSec float64
	// AdmitBurst is the bucket's burst capacity (< 1 clamps to 1).
	AdmitBurst float64
}

// TierConfig maps the options onto the tier they describe. The live path
// is a deliberate subset of cloud.TierConfig: service runs in arrival order
// (no policy) and never coalesces, since the network already fixed the
// order.
func (o ServerOptions) TierConfig() cloud.TierConfig {
	return cloud.TierConfig{
		Replicas:        o.Replicas,
		Router:          o.Router,
		Service:         cloud.ServiceConfig{QueueCap: o.QueueCap, Workers: o.Workers},
		AdmitRatePerSec: o.AdmitRatePerSec,
		AdmitBurst:      o.AdmitBurst,
	}
}

// Validate rejects options NewServerOpts cannot serve: an unregistered
// router, or a negative count or rate.
func (o ServerOptions) Validate() error { return o.TierConfig().Validate() }

// Server is the cloud side: the same cloud.Tier routing-and-scheduling
// engine the simulation's Cluster runs, served over HTTP. Every request
// goes through its device's cloud.Device.Enqueue, as a simulated upload
// does — so token-bucket rejections and QueueCap overload surface as 429
// backpressure and queue statistics accumulate exactly as in the
// virtual-time model — while teacher inference for unrelated devices still
// runs concurrently behind per-device locks; only admission/routing (engine
// state) and the device registry are globally locked. Service order is
// arrival order: on a real network the wire already fixed it, so the
// engine contributes admission control, replica routing, worker horizons
// and statistics rather than reordering, and Enqueue labels the batch and
// runs its callback before it returns.
type Server struct {
	// profile and seed build the teacher of a device that uploads without
	// registering; a registered device brings its own.
	profile *video.Profile
	seed    uint64
	tier    *cloud.Tier
	start   time.Time

	mu      sync.Mutex // guards the devices map only
	devices map[string]*deviceState
}

// deviceState is one device's cloud-side state. Its mutex serialises that
// device's Enqueue calls (the labeler's φ continuity needs request order)
// and controller updates, and keeps the labeled counter coherent for
// handleStatus — without ever blocking other devices.
type deviceState struct {
	mu      sync.Mutex
	dev     cloud.Device
	labeled int64
	// res is the labeled batch onLabeled received during the Enqueue call
	// that d.mu guards; onLabeled is bound once, so a request allocates no
	// callback.
	res       cloud.BatchResult
	onLabeled func(cloud.BatchResult)
}

// NewServerOpts creates the cloud server; the zero ServerOptions is one
// replica with an unbounded labeling queue. A device that registers
// (/v1/register) is built from its registration. p and seed serve only a
// device that uploads without registering: its teacher streams p, seeded
// on seed and a hash of its id, and it gets the default labeler and
// controller configs. It panics on an unregistered router — check user
// input with ServerOptions.Validate first.
func NewServerOpts(p *video.Profile, seed uint64, opts ServerOptions) *Server {
	return &Server{
		profile: p,
		seed:    seed,
		tier:    cloud.NewTier(opts.TierConfig()),
		//shoggoth:allow wallclock -- live boundary: the HTTP server's epoch; real devices arrive in real time, wall time IS the engine clock here
		start:   time.Now(),
		devices: make(map[string]*deviceState),
	}
}

// Handler returns the HTTP handler exposing the Shoggoth cloud API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", s.handleRegister)
	mux.HandleFunc("POST /v1/label", s.handleLabel)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	return mux
}

// now returns seconds since the server started — the engine's real-time
// clock coordinate.
//
//shoggoth:allow wallclock -- live boundary: serves real HTTP clients, so elapsed wall time is the scheduling-engine time axis
func (s *Server) now() float64 { return time.Since(s.start).Seconds() }

// device returns the per-device state, creating it on the first upload of
// a device that never registered. Each device gets its own teacher error
// stream and controller, like the paper's shared cloud serving many edge
// devices. An unregistered device registers on the engine lazily on its
// first label upload — never from a status probe (lookup) — with the
// server's profile, its seed and default configs. The SLO class sticks from
// that first registration; later requests cannot move a device between
// classes.
func (s *Server) device(id, sloClass string) (*deviceState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.devices[id]; ok {
		return d, nil
	}
	ctrl := cloud.DefaultControllerConfig()
	teacher := detect.NewTeacher(s.profile, rand.New(rand.NewPCG(s.seed, idStream(id))))
	return s.addLocked(id, teacher, cloud.DefaultLabelerConfig(), &ctrl, sloClass)
}

// addLocked registers a new device on the engine; s.mu must be held.
func (s *Server) addLocked(id string, teacher *detect.Teacher, labelerCfg cloud.LabelerConfig, ctrlCfg *cloud.ControllerConfig, sloClass string) (*deviceState, error) {
	dev, err := s.tier.RegisterDevice(id, teacher, labelerCfg, ctrlCfg, cloud.DeviceOptions{SLOClass: sloClass})
	if err != nil {
		return nil, err
	}
	d := &deviceState{dev: dev}
	d.onLabeled = func(res cloud.BatchResult) { d.res = res }
	s.devices[id] = d
	return d, nil
}

// idStream hashes a device id into its teacher's PCG stream.
func idStream(id string) uint64 {
	h := uint64(0)
	for _, c := range id {
		h = h*131 + uint64(c)
	}
	return h
}

// handleRegister builds a device from its registration, as the simulator
// builds one from the run's Config: the teacher streams the registered
// profile on (seed, core.RNGStreamTeacher), and the labeler and controller
// take the registered configs. A body the server cannot honour is a 400
// naming the field, an oversize one a 413, and an id the server already
// knows — registered or uploading — a 409. Registration is not admission:
// it never answers 429.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := readBody(r.Body, buf, r.ContentLength, MaxRegistrationBytes); err != nil {
		if errors.Is(err, errBodyTooLarge) {
			http.Error(w, fmt.Sprintf("registration exceeds the %d-byte cap", MaxRegistrationBytes), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		}
		return
	}
	reg, err := DecodeRegistration(*buf)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p, _ := video.ProfileByName(reg.Profile) // DecodeRegistration looked it up
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.devices[reg.DeviceID]; ok {
		http.Error(w, fmt.Sprintf("device %q is already registered", reg.DeviceID), http.StatusConflict)
		return
	}
	teacher := detect.NewTeacher(p, rand.New(rand.NewPCG(reg.Seed, core.RNGStreamTeacher)))
	if _, err := s.addLocked(reg.DeviceID, teacher, reg.Labeler, reg.Controller, reg.SLOClass); err != nil {
		http.Error(w, fmt.Sprintf("register: %v", err), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// lookup returns the device state if the device has registered or ever
// labeled, without creating anything — the read-only path of handleStatus.
func (s *Server) lookup(id string) *deviceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.devices[id]
}

// handleLabel moves whole bodies: the upload is read once into a pooled
// buffer under MaxLabelRequestBytes and decoded from there into a pooled
// request arena, and the reply is encoded into the same buffer and written
// with its Content-Length. Neither pool is touched by a request refused on
// its declared length, and the arena only once the body has arrived whole.
// Every refusal below the 413s comes after the body was read to its end, so
// the client's keep-alive connection survives it.
func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > MaxLabelRequestBytes {
		// Refused unread; net/http then closes the connection rather than
		// drain an upload of that size.
		rejectTooLarge(w)
		return
	}
	buf := getBuffer()
	defer putBuffer(buf)
	if err := readBody(r.Body, buf, r.ContentLength, MaxLabelRequestBytes); err != nil {
		if errors.Is(err, errBodyTooLarge) {
			rejectTooLarge(w)
		} else {
			http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		}
		return
	}
	// req lives in the arena until the handler returns. The labels below are
	// the teacher's own slices, not arena memory, so the deferred put cannot
	// pull anything out from under the reply.
	arena := getArena()
	defer putArena(arena)
	var req LabelRequest
	if err := arena.decode(*buf, &req); err != nil {
		http.Error(w, fmt.Sprintf("decode: %v", err), http.StatusBadRequest)
		return
	}
	if req.DeviceID == "" {
		http.Error(w, "missing DeviceID", http.StatusBadRequest)
		return
	}
	if len(req.Frames) == 0 {
		// An empty batch carries no φ evidence; feeding φ̄=0 to the
		// controller would yank the device's sampling rate toward RMin.
		http.Error(w, "empty Frames batch", http.StatusBadRequest)
		return
	}
	if !cloud.IsFinite(req.Alpha) || !cloud.IsFinite(req.Lambda) {
		// Non-finite telemetry from a misbehaving edge must never reach the
		// controller (the controller also clamps defensively, but a NaN α
		// is a protocol error worth surfacing at the boundary).
		http.Error(w, "non-finite Alpha/Lambda telemetry", http.StatusBadRequest)
		return
	}
	// An unknown device at a full tier is rejected before its state
	// (teacher + controller) is allocated: unique-id spam against an
	// overloaded cloud must not grow the registry — the same bloat hole
	// handleStatus closes by being read-only. Advisory only; Enqueue below
	// re-checks authoritatively.
	if s.lookup(req.DeviceID) == nil && s.tier.AtCapacity(s.now()) {
		s.rejectFull(w)
		return
	}
	d, err := s.device(req.DeviceID, req.SLOClass)
	if err != nil {
		http.Error(w, fmt.Sprintf("register: %v", err), http.StatusInternalServerError)
		return
	}

	d.mu.Lock()
	if !d.dev.Enqueue(arena.pointers(), s.now(), d.onLabeled) {
		d.mu.Unlock()
		s.rejectFull(w)
		return
	}
	res := d.res
	d.res = cloud.BatchResult{}
	d.labeled += int64(len(req.Frames))
	rate, _ := d.dev.UpdateRate(res.PhiMean, req.Alpha, req.Lambda)
	d.mu.Unlock()

	// An executed device's labels and φs are fresh slices, never the
	// replica's scratch, so the reply may be encoded after the lock.
	resp := LabelResponse{
		Labels:        res.Labels,
		Phis:          res.Phis,
		PhiMean:       res.PhiMean,
		NewRate:       rate,
		QueueDelaySec: res.QueueDelaySec,
	}
	// req no longer points into buf (decoded values never do), so the reply
	// can take the buffer over.
	*buf = AppendLabelResponse((*buf)[:0], &resp)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	_, _ = w.Write(*buf) // a failed write means the client is gone; there is no one left to tell
}

func rejectTooLarge(w http.ResponseWriter) {
	http.Error(w, fmt.Sprintf("label request exceeds the %d-byte cap", MaxLabelRequestBytes), http.StatusRequestEntityTooLarge)
}

// rejectFull answers 429 with the engine's Retry-After estimate — the
// earliest of a replica worker freeing and, under admission control, the
// token bucket refilling.
func (s *Server) rejectFull(w http.ResponseWriter) {
	retry := int(math.Ceil(s.tier.RetryAfterSec(s.now())))
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	http.Error(w, "labeling queue full", http.StatusTooManyRequests)
}

// handleStatus is a read-only lookup: probing an unknown device id returns
// 404 and creates no state, so arbitrary status scans cannot bloat the
// server with teachers and controllers.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("device")
	if id == "" {
		http.Error(w, "missing device parameter", http.StatusBadRequest)
		return
	}
	d := s.lookup(id)
	if d == nil {
		http.Error(w, fmt.Sprintf("unknown device %q", id), http.StatusNotFound)
		return
	}
	d.mu.Lock()
	resp := StatusResponse{
		DeviceID:      id,
		Rate:          d.dev.Rate(),
		FramesLabeled: d.labeled,
		Queue:         d.dev.Stats(),
		Cloud:         s.tier.Stats(),
		Tier:          s.tier.TierStats(),
	}
	d.mu.Unlock()
	body, err := json.Marshal(&resp)
	if err != nil {
		http.Error(w, fmt.Sprintf("encode: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // as in handleLabel
}
