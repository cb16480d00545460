package metrics

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// FractionBelow returns P[X < threshold] under the empirical distribution.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) over non-negative
// allocations: 1 means every device got the same share, 1/n means one device
// got everything. Empty and all-zero inputs return 1 by convention — with
// nothing allocated there is no observable inequality.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Running tracks a running mean and (Welford) variance over a stream of
// values in one pass, O(1) state. Mean() stays the plain sum/n it has
// always been — the Welford mean/m2 pair feeds only Variance/StdDev/Min/
// Max — so extending the accumulator cannot move a single historical byte.
type Running struct {
	n    int
	sum  float64
	mean float64 // Welford running mean (numerically, not bitwise, sum/n)
	m2   float64 // Σ(x−mean)², updated incrementally
	min  float64
	max  float64
}

// Add accumulates one value.
func (r *Running) Add(x float64) {
	if r.n == 0 || x < r.min {
		r.min = x
	}
	if r.n == 0 || x > r.max {
		r.max = x
	}
	r.n++
	r.sum += x
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Mean returns the running mean (0 if empty).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Variance returns the sample variance (0 for fewer than two values).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation (0 for fewer than two values).
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest accumulated value (0 if empty).
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max returns the largest accumulated value (0 if empty).
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Merge folds another accumulator into r, as if r had Added every value o
// absorbed (o's running sum is added after r's, so merging accumulators in a
// fixed order is deterministic; merging into a zero Running reproduces o's
// mean bit for bit — the sum and count are unchanged, so Mean performs the
// identical division). Variance merges by the Chan et al. parallel update,
// also in fixed operand order.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	tot := float64(r.n + o.n)
	delta := o.mean - r.mean
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/tot
	r.mean = (r.mean*float64(r.n) + o.mean*float64(o.n)) / tot
	r.n += o.n
	r.sum += o.sum
}

// Count returns the number of accumulated values.
func (r *Running) Count() int { return r.n }

// Reset clears the accumulator.
func (r *Running) Reset() { *r = Running{} }
