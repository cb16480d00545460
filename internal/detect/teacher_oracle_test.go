package detect

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"shoggoth/internal/geom"
	"shoggoth/internal/video"
)

// oracleTeacher is the teacher as it was before its error draws were
// memoised: every draw hashed through hash/fnv on every frame. The bodies
// below are the old ones verbatim (receiver renamed); the tests hold the
// memoised Teacher to them bit for bit, rng position included.
type oracleTeacher struct {
	profile *video.Profile
	rng     *rand.Rand
	seed    uint64
}

func newOracleTeacher(p *video.Profile, rng *rand.Rand) *oracleTeacher {
	return &oracleTeacher{profile: p, rng: rng, seed: rng.Uint64()}
}

func (t *oracleTeacher) Label(f *video.Frame) []TeacherLabel {
	return t.LabelAppend(make([]TeacherLabel, 0, len(f.Proposals)), f)
}

func (t *oracleTeacher) LabelAppend(dst []TeacherLabel, f *video.Frame) []TeacherLabel {
	p := t.profile
	bg := p.BackgroundClass()
	bucket := int64(f.Time / errBucketSec)
	out := dst
	for i, pr := range f.Proposals {
		if pr.GT != nil {
			if t.hash01(pr.TrackID, bucket, 1) < p.TeacherMissRate {
				out = append(out, TeacherLabel{ProposalIdx: i, Class: bg})
				continue
			}
			cls := pr.GT.Class
			if p.NumClasses() > 1 && t.hash01(pr.TrackID, bucket, 2) > p.TeacherClassAcc {
				cls = t.flipClass(cls, pr.TrackID, bucket)
			}
			out = append(out, TeacherLabel{
				ProposalIdx: i,
				Class:       cls,
				Box:         t.jitterBox(pr.GT.Box, pr.TrackID, bucket),
				Confidence:  0.75 + 0.24*t.rng.Float64(),
			})
			continue
		}
		if t.hash01(pr.TrackID, bucket, 4) < p.TeacherFPRate {
			cls := int(t.hash01(pr.TrackID, bucket, 5) * float64(p.NumClasses()))
			if cls >= p.NumClasses() {
				cls = p.NumClasses() - 1
			}
			out = append(out, TeacherLabel{
				ProposalIdx: i,
				Class:       cls,
				Box:         t.jitterBox(pr.Anchor, pr.TrackID, bucket),
				Confidence:  0.5 + 0.3*t.rng.Float64(),
			})
			continue
		}
		out = append(out, TeacherLabel{ProposalIdx: i, Class: bg})
	}
	return out
}

func (t *oracleTeacher) flipClass(cls, trackID int, bucket int64) int {
	n := t.profile.NumClasses()
	o := int(t.hash01(trackID, bucket, 3) * float64(n-1))
	if o >= n-1 {
		o = n - 2
	}
	if o >= cls {
		o++
	}
	return o
}

func (t *oracleTeacher) jitterBox(b geom.Box, trackID int, bucket int64) geom.Box {
	std := t.profile.TeacherBoxStd
	gx := t.hashNorm(trackID, bucket, 6)
	gy := t.hashNorm(trackID, bucket, 7)
	gw := t.hashNorm(trackID, bucket, 8)
	gh := t.hashNorm(trackID, bucket, 9)
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

func (t *oracleTeacher) hash01(trackID int, bucket int64, salt uint64) float64 {
	h := fnv.New64a()
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], t.seed)
	binary.LittleEndian.PutUint64(buf[8:], uint64(trackID))
	binary.LittleEndian.PutUint64(buf[16:], uint64(bucket))
	binary.LittleEndian.PutUint64(buf[24:], salt)
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

func (t *oracleTeacher) hashNorm(trackID int, bucket int64, salt uint64) float64 {
	u1 := t.hash01(trackID, bucket, salt*2+100)
	u2 := t.hash01(trackID, bucket, salt*2+101)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// TestHash01MatchesFNV: the inlined FNV-1a is hash/fnv's, over every salt in
// use and the corners of the other three words.
func TestHash01MatchesFNV(t *testing.T) {
	salts := []uint64{saltMiss, saltClassAcc, saltFlip, saltFP, saltFPClass, saltAnalyticPhi}
	for s := uint64(saltJitter); s < saltJitter+4; s++ {
		salts = append(salts, s, s*2+100, s*2+101)
	}
	tracks := []int{0, 1, -1, 63, 64, math.MaxInt, math.MinInt, 1 << 40, -(1 << 40)}
	buckets := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 200; i++ {
		seed := rng.Uint64()
		got := &Teacher{seedHash: fnvWord(fnvOffset64, seed)}
		want := &oracleTeacher{seed: seed}
		tracks[0], buckets[0] = int(rng.Int64()), rng.Int64()
		for _, tr := range tracks {
			for _, b := range buckets {
				for _, s := range salts {
					g, w := got.hash01(tr, b, s), want.hash01(tr, b, s)
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("hash01(seed %d, track %d, bucket %d, salt %d) = %v, hash/fnv gives %v", seed, tr, b, s, g, w)
					}
				}
			}
		}
	}
}

// labelBoth labels f with both teachers and fails on the first difference.
func labelBoth(t *testing.T, what string, got *Teacher, want *oracleTeacher, f *video.Frame) {
	t.Helper()
	g, w := got.Label(f), want.Label(f)
	if len(g) != len(w) {
		t.Fatalf("%s, frame %d: %d labels, oracle %d", what, f.Index, len(g), len(w))
	}
	for i := range w {
		if !sameLabel(g[i], w[i]) {
			t.Fatalf("%s, frame %d, label %d: %+v, oracle %+v", what, f.Index, i, g[i], w[i])
		}
	}
}

func sameLabel(a, b TeacherLabel) bool {
	bits := math.Float64bits
	return a.ProposalIdx == b.ProposalIdx && a.Class == b.Class && bits(a.Confidence) == bits(b.Confidence) &&
		bits(a.Box.X1) == bits(b.Box.X1) && bits(a.Box.Y1) == bits(b.Box.Y1) &&
		bits(a.Box.X2) == bits(b.Box.X2) && bits(a.Box.Y2) == bits(b.Box.Y2)
}

// TestTeacherMemoMatchesUncachedOracle: on one PCG seed the memoised teacher
// and the uncached oracle produce the same labels and leave their rng at the
// same position — over the stock streams, and over sequences built to break
// a direct-mapped table.
func TestTeacherMemoMatchesUncachedOracle(t *testing.T) {
	for _, p := range []*video.Profile{video.DETRACProfile(), video.KITTIProfile(), video.WaymoProfile()} {
		grng, wrng := rand.New(rand.NewPCG(11, 12)), rand.New(rand.NewPCG(11, 12))
		got, want := NewTeacher(p, grng), newOracleTeacher(p, wrng)
		stream := video.NewStream(p, 3)
		for i := 0; i < 3000; i++ {
			labelBoth(t, p.Name, got, want, stream.Next())
		}

		// Adversarial frames: every proposal once with a GT and once without,
		// at error rates high enough that each branch is taken.
		hard := *p
		hard.TeacherMissRate, hard.TeacherFPRate, hard.TeacherClassAcc = 0.3, 0.4, 0.5
		got.profile, want.profile = &hard, &hard
		frame := func(idx int, time float64, ids ...int) *video.Frame {
			f := &video.Frame{Index: idx, Time: time}
			for k, id := range ids {
				pr := video.Proposal{TrackID: id, Anchor: geom.FromCenter(0.5, 0.5, 0.1+0.01*float64(k), 0.2)}
				if k%2 == 0 {
					pr.GT = &video.GT{TrackID: id, Class: k % hard.NumClasses(), Box: geom.FromCenter(0.4, 0.6, 0.15, 0.1)}
				}
				f.Proposals = append(f.Proposals, pr)
			}
			return f
		}
		idx := 0
		step := func(what string, time float64, ids ...int) {
			labelBoth(t, p.Name+": "+what, got, want, frame(idx, time, ids...))
			idx++
		}
		for r := 0; r < 4; r++ {
			// Ids a multiple of memoSize apart share one slot, within a frame
			// and across frames.
			step("colliding ids", 1, 5, 5+memoSize, 5+2*memoSize, 5, 5-memoSize, 5+memoSize)
			// Time runs backwards: a track reappears in an earlier bucket.
			step("later bucket", 100, 7, 8, 9)
			step("earlier bucket", 20, 7, 8, 9)
			// One id in two buckets, alternately.
			step("bucket a", 8*3+1, 21, 21)
			step("bucket b", 8*4+1, 21, 21)
			// Negative time and negative, huge ids.
			step("corners", -17, -1, math.MinInt, math.MaxInt, 0)
			// More live tracks than the table has slots, twice over.
			many := make([]int, 3*memoSize)
			for k := range many {
				many[k] = 1000 + k
			}
			step("many tracks", 50, many...)
			step("many tracks again", 51, many...)
		}
		if g, w := grng.Uint64(), wrng.Uint64(); g != w {
			t.Fatalf("%s: rng positions differ after labeling: next draw %d, oracle %d", p.Name, g, w)
		}
	}
}

// TestTeacherMemoIsBounded: TrackID arrives off the wire, so a million
// distinct ids must leave the table the size it started and allocate nothing
// but the labels; and a teacher that only ever prices φ has no table at all.
func TestTeacherMemoIsBounded(t *testing.T) {
	p := video.DETRACProfile()
	teacher := NewTeacher(p, rand.New(rand.NewPCG(1, 2)))
	for i := 0; i < 100; i++ {
		teacher.AnalyticPhi(i, 0.5, i%7 == 0)
	}
	if teacher.memo != nil {
		t.Fatal("AnalyticPhi alone allocated the draw table")
	}

	const perFrame = 100
	f := &video.Frame{Proposals: make([]video.Proposal, perFrame)}
	dst := make([]TeacherLabel, 0, perFrame)
	next := 0
	labelFrame := func() {
		for k := range f.Proposals {
			f.Proposals[k].TrackID = next
			next += 7
		}
		f.Time += 0.3
		dst = teacher.LabelAppend(dst[:0], f)
	}
	labelFrame()
	table := teacher.memo
	if table == nil {
		t.Fatal("an executed label left no draw table")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1_000_000/perFrame; i++ {
		labelFrame()
	}
	runtime.ReadMemStats(&after)
	if teacher.memo != table {
		t.Fatal("the draw table was reallocated")
	}
	if got := reflect.TypeOf(*teacher.memo).Len(); got != memoSize {
		t.Fatalf("table has %d slots, want %d", got, memoSize)
	}
	// ReadMemStats itself may allocate a little; a table that grew with the
	// ids would allocate thousands of times.
	if n := after.Mallocs - before.Mallocs; n > 16 {
		t.Fatalf("labeling 10^6 distinct track ids allocated %d times", n)
	}
}
