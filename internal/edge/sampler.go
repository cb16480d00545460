package edge

import "math"

// Sampler selects which camera frames are uploaded for labeling at the
// current sampling rate r (frames/second). The rate is adjusted remotely by
// the cloud's sampling-rate controller (§III-C).
type Sampler struct {
	rate    float64
	credit  float64
	lastT   float64
	started bool
	// grid is the frame grid Scan built last, kept for the next span: it
	// depends on the frame step, the rate and the binade of time alone.
	grid frameGrid
}

// maxCredit caps accrued sampling credit. While the rate meets or exceeds
// the camera FPS, every frame is sampled and the surplus used to pile up
// without bound — so a later rate cut was followed by a burst of stale
// samples until the backlog drained. The cap bounds that burst to at most
// two immediate samples (credit 2 → 1 → 0). With a rate below the camera
// FPS credit stays under 2 on its own (each frame adds < 1 and a sample
// subtracts 1), so sub-FPS sampling is untouched by the clamp.
const maxCredit = 2

// NewSampler creates a sampler at the initial rate.
func NewSampler(rate float64) *Sampler { return &Sampler{rate: rate} }

// Rate returns the current sampling rate in frames/second.
func (s *Sampler) Rate() float64 { return s.rate }

// SetRate applies a rate command from the cloud controller.
func (s *Sampler) SetRate(r float64) {
	if r < 0 {
		r = 0
	}
	s.rate = r
}

// Sample reports whether the frame at time t should be uploaded. It
// accumulates fractional credit so any rate below the camera FPS is honored
// exactly on average.
func (s *Sampler) Sample(t float64) bool {
	credit := 1.0 // sample the first frame: bootstrap labeling quickly
	if s.started {
		credit = accrue(s.credit, s.lastT, t, s.rate)
	}
	s.started, s.lastT = true, t
	var ok bool
	s.credit, ok = spend(credit)
	return ok
}

// accrue is a started sampler's credit step: the credit earned at rate
// from the previous frame's time lastT to t, capped at maxCredit. The
// product is converted so that arm64 cannot fuse it into the addition:
// Scan's closed form adds the product as rounded.
func accrue(credit, lastT, t, rate float64) float64 {
	credit += float64((t - lastT) * rate)
	if credit > maxCredit {
		credit = maxCredit
	}
	return credit
}

// Scan makes the Sample calls for camera frames from … to−1, frame k at
// time float64(k)·dt, up to the first frame that is accepted or whose time
// t has t−since ≥ wait (a buffer captured at since has waited its limit).
// It returns that frame's index and whether it was accepted, or to and
// false when no frame stops it. It leaves the sampler in the state those
// calls leave it, bit for bit.
//
// The span's first call, which reads the stored lastT, and every call
// that may accept or cross a binade play one at a time through the same
// inlined accrue and spend. Between them the frames play in closed form
// (creditRun): while the previous frame's time and the credit each stay
// in one binade, a frame adds one of two whole numbers of the credit's
// ulps, and how often each was added follows from the last frame's time.
//
//shoggoth:hotpath
func (s *Sampler) Scan(from, to int, dt, since, wait float64) (stop int, accepted bool) {
	if from >= to {
		return to, false
	}
	if !s.started {
		return from, s.Sample(float64(from) * dt)
	}
	check := replayScan(s)
	credit, lastT, rate := s.credit, s.lastT, s.rate
	waitAt := -1 // the first frame the wait stops, found when first needed
	g := &s.grid
	// Below skip the credit plays one call at a time: a credit binade of
	// a few frames, or one creditRun has refused.
	skip := 0.0
	stop = from
	for {
		t := float64(float64(stop) * dt) // converted: t−since must not fuse
		credit, accepted = spend(accrue(credit, lastT, t, rate))
		lastT = t
		if accepted || t-since >= wait {
			break
		}
		if stop++; stop == to {
			break
		}
		if credit < skip {
			continue
		}
		// The grid must hold the previous frame, stop−1.
		if stop > g.end || stop <= g.first || g.dt != dt || g.rate != rate {
			*g = newFrameGrid(stop-1, dt, rate)
		}
		if credit < g.minCredit {
			skip = g.minCredit
			continue
		}
		if waitAt < 0 {
			waitAt = waitFrame(stop, to, dt, since, wait)
		}
		m, c := g.creditRun(credit, lastT, stop, min(g.end, waitAt), dt)
		if m == 0 { // refused: wait for the credit's next binade
			skip = math.Float64frombits((math.Float64bits(credit)>>52 + 1) << 52)
			continue
		}
		credit, stop = c, stop+m
		lastT = float64(stop-1) * dt
		if stop == to {
			break
		}
	}
	s.credit, s.lastT = credit, lastT
	check.matches(s, from, to, dt, since, wait, stop, accepted)
	return stop, accepted
}

// frameGrid holds the frame times of one binade [2^e, 2^(e+1)) of time,
// where each is a whole number of ulps u = 2^(e−52), for creditRun. Two
// consecutive frame times k−1 and k in it differ exactly (Sterbenz), and
// each lies within u/2 of k·dt, so the difference is ⌊dt/u⌋ or ⌊dt/u⌋+1
// ulps: lo or lo+1, one of two increments xlo and xhi once multiplied by
// the rate (only lo when dt is a whole number of ulps, and then xhi is
// xlo). Summed over frames k … j it is the bits of frame j's time less
// those of frame k−1's, so the count of lo+1 steps among them is that sum
// less (j−k+1)·lo.
type frameGrid struct {
	dt, rate     float64 // the frame step and rate the grid is for
	first, end   int     // the frame it was built at, and the first frame past the binade (or a bound below it)
	lo           uint64  // ⌊dt/u⌋
	xlo, xhi     float64 // the credit a frame adds at a step of lo and of lo+1 ulps
	tieLo, tieHi uint64  // the credit exponent at which xlo or xhi is half an ulp past a whole number
	perCredit    float64 // 1/(dt·rate), frames per unit of credit, for a first guess
	minCredit    float64 // 8·xhi: below it a credit's binade holds under 8 frames
}

// newFrameGrid returns the grid of the binade frame k's time lies in,
// ending at most 2^30 frames after k. A time or frame step the grid
// cannot describe (a time below 2^−969, a step not normal or at least the
// binade's bottom) or a rate that is negative or NaN gives a grid that
// ends at k+1 with increments that creditRun refuses.
func newFrameGrid(k int, dt, rate float64) frameGrid {
	tb, db := math.Float64bits(float64(k)*dt), math.Float64bits(dt)
	te, de := tb>>52, db>>52
	if !(te > 53 && te < 2046 && de > 0 && de < te && rate >= 0) { // also rejects signs and non-finite values
		return frameGrid{dt: dt, rate: rate, first: k, end: k + 1, xlo: math.NaN(), xhi: math.NaN()}
	}
	sh := te - de
	mant := db&(1<<52-1) | 1<<52
	lo := mant >> sh
	u := math.Float64frombits((te - 52) << 52)
	g := frameGrid{dt: dt, rate: rate, first: k, lo: lo, xlo: float64(lo) * u * rate, perCredit: 1 / (dt * rate)}
	g.xhi = g.xlo
	if mant&(1<<sh-1) != 0 {
		g.xhi = float64(lo+1) * u * rate
	}
	g.tieLo, g.tieHi = tieExp(g.xlo), tieExp(g.xhi)
	g.minCredit = 8 * g.xhi
	// The first frame whose time reaches the binade's top, found as
	// secondEnd finds a second's end: a guess from the division, corrected
	// by the comparison itself, which grows with the frame.
	top := math.Float64frombits((te + 1) << 52)
	bound := k + 1<<30
	g.end = bound
	if guess := math.Ceil(top / dt); guess < float64(bound) {
		g.end = max(int(guess), k+1)
	}
	for g.end > k+1 && float64(g.end-1)*dt >= top {
		g.end--
	}
	for g.end < bound && float64(g.end)*dt < top {
		g.end++
	}
	return g
}

// tieExp returns the exponent field of the credits whose ulp is twice
// x's lowest bit, for which x is a whole number of ulps and a half: 0, no
// credit's, for a zero or non-finite x.
func tieExp(x float64) uint64 {
	if !(x > 0 && x <= math.MaxFloat64) {
		return 0
	}
	return uint64(lowBit(x) + 1076)
}

// creditRun plays, in closed form, the Sample calls for frames k … k+m−1
// after frame k−1's at lastT, for the largest m with k+m at most limit
// over which the credit stays in its binade, and returns m and the credit
// those calls leave; frames k−1 and limit−1 must lie in the grid.
//
// A credit c in [2^f, 2^(f+1)) is a whole number of ulps v = 2^(f−52),
// and while c+x stays below 2^(f+1), fl(c+x) is c plus x rounded to a
// whole number of ulps, RNE(x/v), whatever c is. That holds when the
// rounded sum stays at most 2^(f+1)−v, and then the credit stays under 1
// so no call accepts and the cap never binds. With nlo and nhi the ulps
// the two increments add, m calls add (m−h)·nlo + h·nhi, h the count of
// lo+1 steps, which grows with m; the credit is its bits plus that sum.
// An increment exactly half an ulp past a whole number rounds to even,
// which depends on c, so such a credit binade gets m = 0, as does a
// credit that is zero, at least 1, below 2^−971 or not finite, and an
// increment that is not finite or 2^52 ulps or more. Building the result
// from the credit's bits leaves no multiply-add to fuse.
func (g *frameGrid) creditRun(credit, lastT float64, k, limit int, dt float64) (int, float64) {
	cb := math.Float64bits(credit)
	ce := cb >> 52
	if limit <= k || ce < 52 || ce > 1022 || ce == g.tieLo || ce == g.tieHi {
		return 0, credit
	}
	scale := math.Float64frombits((2098 - ce) << 52) // 1/v: 2^(1075−ce)
	qlo, qhi := g.xlo*scale, g.xhi*scale
	if !(qhi < 1<<52) { // also NaN; qlo ≤ qhi
		return 0, credit
	}
	// Added to 2^52, a q in [0, 2^52) rounds to the whole number nearest
	// it, which the sum's mantissa then holds.
	const whole = 1 << 52
	nlo := math.Float64bits(float64(qlo)+whole) - math.Float64bits(whole)
	nhi := math.Float64bits(float64(qhi)+whole) - math.Float64bits(whole)
	top := (ce + 1) << 52
	m := limit - k
	if nhi == 0 { // no step moves the credit
		return m, credit
	}
	// A guess from the mean step, corrected to the last m whose exact sum
	// of steps keeps the credit's bits below top.
	base := math.Float64bits(lastT)
	if guess := float64((math.Float64frombits(top) - credit) * g.perCredit); guess < float64(m) {
		m = int(guess)
	}
	sum := g.steps(base, k, m, nlo, nhi, dt)
	if cb+sum < top {
		for m < limit-k {
			next := g.steps(base, k, m+1, nlo, nhi, dt)
			if cb+next >= top {
				break
			}
			m, sum = m+1, next
		}
	} else {
		for m > 0 && cb+sum >= top {
			m--
			sum = g.steps(base, k, m, nlo, nhi, dt)
		}
	}
	return m, math.Float64frombits(cb + sum)
}

// steps returns the ulps of credit the m frames k … k+m−1 add after the
// frame whose time has bits base: nlo for each step of lo ulps of time
// and nhi for each of lo+1.
func (g *frameGrid) steps(base uint64, k, m int, nlo, nhi uint64, dt float64) uint64 {
	if m == 0 {
		return 0
	}
	h := math.Float64bits(float64(k+m-1)*dt) - base - uint64(m)*g.lo
	return (uint64(m)-h)*nlo + h*nhi
}

// waitFrame returns the first frame from k on, before to, whose time t has
// t−since ≥ wait, or to: the comparison Scan stops on, which grows with
// the frame. It starts from ⌈(since+wait)/dt⌉, or from to when that is
// not finite (an empty buffer waits +Inf), and corrects that guess with
// the comparison itself.
func waitFrame(k, to int, dt, since, wait float64) int {
	if float64(float64(k)*dt)-since >= wait {
		return k
	}
	w := to
	if lim := since + wait; lim < math.Inf(1) {
		if guess := math.Ceil(lim / dt); guess < float64(to) {
			w = k + 1
			if guess > float64(w) {
				w = int(guess)
			}
		}
	}
	for w > k+1 && float64(float64(w-1)*dt)-since >= wait {
		w--
	}
	for w < to && !(float64(float64(w)*dt)-since >= wait) {
		w++
	}
	return w
}

// creditSlack is taken off the credit SkipBefore still needs before it
// divides. Sample's running sum drifts from the exact one by under 1e-15 a
// call, so this absorbs a million calls whatever the rate.
const creditSlack = 1e-9

// SkipBefore returns how many of the coming Sample calls, made dt apart at
// the given rate from the current credit, are certain to come before the
// one that accepts the n-th frame from now: a lower bound, +Inf when no
// number of calls gets there, 0 when nothing can be promised (a sampler
// that has not started accepts at once). That acceptance needs n−credit
// more credit and a call adds dt·rate, so with x = (n−credit)/(dt·rate) it
// is call ⌈x⌉ at the earliest and ⌈x⌉−1 calls come first. The bound
// promises ⌊x⌋−1 of them, which holds while x is off by less than a whole
// call — rounding in this division and in Sample's running sum together
// stay far below that. The credit cap is ignored: it only ever delays an
// acceptance. The bound falls as the rate rises, so it also holds for calls
// made at any rates at most rate, which add no more credit.
func (s *Sampler) SkipBefore(n int, dt, rate float64) float64 {
	need := float64(n) - s.credit
	if !s.started || need <= 0 {
		return 0
	}
	if rate <= 0 {
		return math.Inf(1) // credit no longer moves
	}
	return math.Max(0, math.Floor((need-creditSlack)/(dt*rate))-1)
}
