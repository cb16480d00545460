package detect

import (
	"math"
	"math/rand/v2"

	"shoggoth/internal/geom"
	"shoggoth/internal/video"
)

// TeacherLabel is the cloud's online label for one proposal of a frame
// (Eq. 1 of the paper generalised to per-class labels: positives carry the
// detector's class and box, negatives carry the background label).
type TeacherLabel struct {
	ProposalIdx int
	Class       int // background class for negatives
	Box         geom.Box
	Confidence  float64
}

// errBucketSec is the time-bucket width for temporally-correlated teacher
// errors: a real golden model's mistakes persist while the scene looks the
// same, rather than flickering frame to frame. Correlated errors are also
// what makes high sampling rates overfit (Table III): a batch gathered in a
// short window contains few independent labels, so SGD fits the teacher's
// mistakes.
const errBucketSec = 8.0

// Teacher is the golden model running in the cloud. It is an oracle with a
// per-profile accuracy ceiling: it sees the generative ground truth and
// corrupts it with the profile's class-flip, miss, false-positive and
// box-jitter rates. Errors are deterministic per (track, time bucket), so
// they are temporally consistent — a hard object stays mislabeled for a few
// seconds instead of flickering, which keeps the φ change signal (§III-C)
// about the *scene* rather than about labeler noise.
//
// They are also computed per (track, time bucket): the executed teacher
// keeps each pair's draws in a small table (errDraws) for as long as the
// pair stays in view, so a frame costs hashes and Box–Muller transforms only
// for the tracks it sees for the first time in a bucket. A Teacher is not
// safe for concurrent use; its callers label one device's frames in order.
type Teacher struct {
	profile *video.Profile
	rng     *rand.Rand
	// seedHash is the FNV-1a state after the teacher's seed: the prefix every
	// hash01 shares, folded once.
	seedHash uint64
	// memo is nil until the first executed label: an events-fidelity device
	// (AnalyticPhi only) never allocates it.
	memo *[memoSize]errDraws
}

// memoSize is the number of direct-mapped errDraws slots: four frames' worth
// of tracks on the stock profiles (at most 15 proposals a frame, with ids
// handed out in sequence, so the live ones rarely collide). The size is fixed
// because TrackID arrives off the wire: a hostile stream of distinct ids can
// evict entries, never grow the table.
const memoSize = 64

// errDraws caches the error draws of one (track, bucket): the uniforms of
// salts 1–5 and the four box-jitter normals of salts 6–9, each a pure
// function of (teacher seed, track, bucket), filled in on first use. The
// zero value is a valid empty entry for (0, 0).
type errDraws struct {
	track  int
	bucket int64
	have   uint // bit s: u[s-1] is set (salts 1–5); haveNormals: g is set
	u      [5]float64
	g      [4]float64
}

const haveNormals = 1 << 6

// draws returns the table entry for (trackID, bucket), emptied first if the
// slot held another pair's.
func (t *Teacher) draws(trackID int, bucket int64) *errDraws {
	e := &t.memo[uint(trackID)%memoSize]
	if e.track != trackID || e.bucket != bucket {
		*e = errDraws{track: trackID, bucket: bucket}
	}
	return e
}

// uniform is hash01(e.track, e.bucket, salt) for a salt in 1–5, hashed once
// per entry.
func (t *Teacher) uniform(e *errDraws, salt uint) float64 {
	if e.have&(1<<salt) == 0 {
		e.u[salt-1] = t.hash01(e.track, e.bucket, uint64(salt))
		e.have |= 1 << salt
	}
	return e.u[salt-1]
}

// normals is hashNorm(e.track, e.bucket, 6…9), transformed once per entry.
func (t *Teacher) normals(e *errDraws) *[4]float64 {
	if e.have&haveNormals == 0 {
		for i := range e.g {
			e.g[i] = t.hashNorm(e.track, e.bucket, saltJitter+uint64(i))
		}
		e.have |= haveNormals
	}
	return &e.g
}

// NewTeacher creates the teacher for a profile.
func NewTeacher(p *video.Profile, rng *rand.Rand) *Teacher {
	return &Teacher{profile: p, rng: rng, seedHash: fnvWord(fnvOffset64, rng.Uint64())}
}

// Label produces online labels for every proposal of the frame.
func (t *Teacher) Label(f *video.Frame) []TeacherLabel {
	return t.LabelAppend(make([]TeacherLabel, 0, len(f.Proposals)), f)
}

// LabelAppend appends the frame's labels to dst and returns the extended
// slice. It is the allocation-free form of Label for batched labeling: the
// caller provides one slab for many frames and slices out each frame's
// labels. Per-proposal work (including the order of RNG draws) is identical
// to Label, so batch labeling is bit-identical to frame-at-a-time labeling.
func (t *Teacher) LabelAppend(dst []TeacherLabel, f *video.Frame) []TeacherLabel {
	p := t.profile
	bg := p.BackgroundClass()
	bucket := int64(f.Time / errBucketSec)
	if t.memo == nil {
		t.memo = new([memoSize]errDraws)
	}
	out := dst
	for i := range f.Proposals {
		pr := &f.Proposals[i]
		e := t.draws(pr.TrackID, bucket)
		if pr.GT != nil {
			if t.uniform(e, saltMiss) < p.TeacherMissRate {
				out = append(out, TeacherLabel{ProposalIdx: i, Class: bg})
				continue
			}
			cls := pr.GT.Class
			if p.NumClasses() > 1 && t.uniform(e, saltClassAcc) > p.TeacherClassAcc {
				cls = t.flipClass(cls, e)
			}
			out = append(out, TeacherLabel{
				ProposalIdx: i,
				Class:       cls,
				Box:         t.jitterBox(pr.GT.Box, e),
				Confidence:  0.75 + 0.24*t.rng.Float64(),
			})
			continue
		}
		if t.uniform(e, saltFP) < p.TeacherFPRate {
			cls := int(t.uniform(e, saltFPClass) * float64(p.NumClasses()))
			if cls >= p.NumClasses() {
				cls = p.NumClasses() - 1
			}
			out = append(out, TeacherLabel{
				ProposalIdx: i,
				Class:       cls,
				Box:         t.jitterBox(pr.Anchor, e),
				Confidence:  0.5 + 0.3*t.rng.Float64(),
			})
			continue
		}
		out = append(out, TeacherLabel{ProposalIdx: i, Class: bg})
	}
	return out
}

// The hash salts. 1–9 (and the hashNorm expansions derived from 6–9) belong
// to the executed teacher's error draws; saltAnalyticPhi keys the analytic φ
// jitter stream. None may be reused.
const (
	saltMiss        = 1 // miss test of a positive proposal
	saltClassAcc    = 2 // class-flip test
	saltFlip        = 3 // which wrong class
	saltFP          = 4 // false-positive test of a distractor
	saltFPClass     = 5 // the false positive's class
	saltJitter      = 6 // 6–9: box-jitter normals for cx, cy, w, h
	saltAnalyticPhi = 10
)

// AnalyticPhi is the events-fidelity stand-in for the label-change loss a
// labeling round would compute over two executed teacher outputs: a
// deterministic drift model over the time elapsed between consecutive
// labeled frames of one device. Three effects compose, mirroring the
// executed signal's structure:
//
//   - track turnover — scene slots regenerate on the profile's mean object
//     TTL cadence, and an unmatched appearance/disappearance contributes a
//     full unit to the change loss, so the turnover fraction 1−exp(−Δt/TTL)
//     enters directly;
//   - matched drift — tracks that survived the gap moved for Δt seconds,
//     and their 1−IoU disagreement saturates with displacement;
//   - relabeling jitter — the teacher's per-frame box jitter keeps φ off
//     zero even for a stationary scene.
//
// A domain switch relabels the whole scene (class mix, geometry bias),
// which the executed path sees as mostly-unmatched labels — modeled as a
// high-φ excursion. The value is a pure function of (teacher seed, frame
// index, Δt, domain change): reruns and worker counts cannot disturb it,
// and no RNG stream advances.
func (t *Teacher) AnalyticPhi(frameIdx int, dt float64, domainChanged bool) float64 {
	jit := t.hash01(frameIdx, 0, saltAnalyticPhi)
	if domainChanged {
		phi := 0.82 + 0.15*jit
		if phi > 1 {
			phi = 1
		}
		return phi
	}
	if dt < 0 {
		dt = 0
	}
	ttl := (t.profile.ObjectTTL[0] + t.profile.ObjectTTL[1]) / 2
	if ttl <= 0 {
		ttl = 1
	}
	turnover := 1 - math.Exp(-dt/ttl)
	drift := 1 - math.Exp(-dt/3.0)
	jitterFloor := 0.10 + 0.06*jit
	phi := turnover + (1-turnover)*(jitterFloor+0.45*drift)
	if phi > 1 {
		phi = 1
	}
	return phi
}

// Detections converts teacher labels into detections (Cloud-Only inference
// results: what the cloud returns when it does all the work).
func (t *Teacher) Detections(labels []TeacherLabel) []Detection {
	return t.AppendDetections(nil, labels)
}

// AppendDetections appends labels' detections to dst, growing it at most
// once, and returns the extended slice (dst itself when labels holds only
// background).
func (t *Teacher) AppendDetections(dst []Detection, labels []TeacherLabel) []Detection {
	bg := t.profile.BackgroundClass()
	n := 0
	for i := range labels {
		if labels[i].Class != bg {
			n++
		}
	}
	out := dst
	if n > cap(out)-len(out) {
		out = make([]Detection, len(dst), len(dst)+n)
		copy(out, dst)
	}
	for _, l := range labels {
		if l.Class == bg {
			continue
		}
		out = append(out, Detection{
			ProposalIdx: l.ProposalIdx,
			Class:       l.Class,
			Confidence:  l.Confidence,
			Box:         l.Box,
		})
	}
	return out
}

// flipClass deterministically picks a wrong class for a (track, bucket).
func (t *Teacher) flipClass(cls int, e *errDraws) int {
	n := t.profile.NumClasses()
	o := int(t.uniform(e, saltFlip) * float64(n-1))
	if o >= n-1 {
		o = n - 2
	}
	if o >= cls {
		o++
	}
	return o
}

// jitterBox displaces a box by a per-(track,bucket) systematic jitter plus a
// small fresh per-frame component.
func (t *Teacher) jitterBox(b geom.Box, e *errDraws) geom.Box {
	std := t.profile.TeacherBoxStd
	g := t.normals(e)
	gx, gy, gw, gh := g[0], g[1], g[2], g[3]
	cx, cy := b.Center()
	w, h := b.Size()
	fresh := std * 0.25
	return geom.FromCenter(
		cx+(gx*std+t.rng.NormFloat64()*fresh)*w,
		cy+(gy*std+t.rng.NormFloat64()*fresh)*h,
		w*math.Exp(gw*std+t.rng.NormFloat64()*fresh),
		h*math.Exp(gh*std+t.rng.NormFloat64()*fresh),
	)
}

// hash01 returns a deterministic uniform value in [0, 1) for the tuple
// (teacher seed, track, bucket, salt): 64-bit FNV-1a over the four words,
// each taken as its eight little-endian bytes.
func (t *Teacher) hash01(trackID int, bucket int64, salt uint64) float64 {
	h := fnvWord(t.seedHash, uint64(trackID))
	h = fnvWord(h, uint64(bucket))
	h = fnvWord(h, salt)
	return float64(h>>11) / float64(1<<53)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds w's eight bytes, least significant first, into FNV-1a state h.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime64
		w >>= 8
	}
	return h
}

// hashNorm returns a deterministic standard-normal value via Box–Muller over
// two hash draws.
func (t *Teacher) hashNorm(trackID int, bucket int64, salt uint64) float64 {
	u1 := t.hash01(trackID, bucket, salt*2+100)
	u2 := t.hash01(trackID, bucket, salt*2+101)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LabeledRegion is a distillation training example: the proposal's feature
// vector paired with the teacher's supervision. This is what flows from the
// cloud's labeling stage to the edge's training stage in Shoggoth's
// decoupled knowledge distillation.
type LabeledRegion struct {
	Features []float64
	Class    int // background class for negatives (Eq. 1 y=0)
	Offset   geom.Offset
	HasBox   bool
	Time     float64 // capture time (stream seconds)
}

// BuildTrainingBatch pairs a frame's proposals with teacher labels to form
// distillation examples. Positive labels get a box-regression target (the
// offset from the proposal anchor to the teacher's box).
func BuildTrainingBatch(f *video.Frame, labels []TeacherLabel, bg int) []LabeledRegion {
	out := make([]LabeledRegion, 0, len(labels))
	for _, l := range labels {
		pr := f.Proposals[l.ProposalIdx]
		r := LabeledRegion{Features: pr.Features, Class: l.Class, Time: f.Time}
		if l.Class != bg && l.Box.Valid() {
			r.Offset = geom.OffsetBetween(pr.Anchor, l.Box)
			r.HasBox = true
		}
		out = append(out, r)
	}
	return out
}
