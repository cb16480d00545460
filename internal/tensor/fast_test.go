package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
)

// randMat returns a rows×cols matrix of standard-normal values.
func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestFastGemmF64AsmMatchesGeneric locks the fast tier's determinism
// foundation: the AVX2 float64 microkernel and the portable math.FMA kernel
// must agree bit for bit on every shape, including ragged edges (non-multiple
// of the 4×8 block), single rows and transposed strides.
func TestFastGemmF64AsmMatchesGeneric(t *testing.T) {
	if !FastAccelerated() {
		t.Skip("no AVX2+FMA: only the generic kernel exists on this machine")
	}
	rng := rand.New(rand.NewPCG(7, 7))
	shapes := [][3]int{{1, 1, 1}, {1, 1, 9}, {4, 8, 8}, {5, 3, 9}, {64, 48, 48}, {3, 48, 32}, {2, 1, 4}, {7, 7, 7}}
	for trial := 0; trial < 200; trial++ {
		var m, k, n int
		if trial < len(shapes) {
			m, k, n = shapes[trial][0], shapes[trial][1], shapes[trial][2]
		} else {
			m, k, n = 1+rng.IntN(70), 1+rng.IntN(70), 1+rng.IntN(70)
		}
		trans := trial%2 == 1
		ars, acs, asz := k, 1, m*k
		if trans {
			ars, acs, asz = 1, m, k*m
		}
		a := make([]float64, asz)
		b := make([]float64, k*n)
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for i := range c1 {
			c1[i] = rng.NormFloat64()
			c2[i] = c1[i]
		}
		gemmAccF64Generic(c1, a, b, m, k, n, ars, acs)
		gemmAccF64AVX2(&c2[0], &a[0], &b[0], m, k, n, ars, acs)
		for i := range c1 {
			if math.Float64bits(c1[i]) != math.Float64bits(c2[i]) {
				t.Fatalf("trial %d m=%d k=%d n=%d trans=%v: elem %d asm %x generic %x",
					trial, m, k, n, trans, i, math.Float64bits(c2[i]), math.Float64bits(c1[i]))
			}
		}
	}
}

// TestFastGemmF32AsmMatchesGeneric is the float32-lane twin: VMULPS+VADDPS
// in assembly versus the explicitly two-rounded portable loop.
func TestFastGemmF32AsmMatchesGeneric(t *testing.T) {
	if !FastAccelerated() {
		t.Skip("no AVX2+FMA: only the generic kernel exists on this machine")
	}
	rng := rand.New(rand.NewPCG(9, 9))
	shapes := [][3]int{{1, 1, 1}, {1, 1, 8}, {1, 1, 9}, {4, 8, 8}, {5, 3, 17}, {64, 48, 48}, {3, 48, 32}, {6, 2, 5}}
	for trial := 0; trial < 200; trial++ {
		var m, k, n int
		if trial < len(shapes) {
			m, k, n = shapes[trial][0], shapes[trial][1], shapes[trial][2]
		} else {
			m, k, n = 1+rng.IntN(70), 1+rng.IntN(70), 1+rng.IntN(70)
		}
		trans := trial%2 == 0
		ars, acs, asz := k, 1, m*k
		if trans {
			ars, acs, asz = 1, m, k*m
		}
		a := make([]float32, asz)
		b := make([]float32, k*n)
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		for i := range c1 {
			c1[i] = float32(rng.NormFloat64())
			c2[i] = c1[i]
		}
		gemmAccF32Generic(c1, a, b, m, k, n, ars, acs)
		gemmAccF32AVX2(&c2[0], &a[0], &b[0], m, k, n, ars, acs)
		for i := range c1 {
			if math.Float32bits(c1[i]) != math.Float32bits(c2[i]) {
				t.Fatalf("trial %d m=%d k=%d n=%d trans=%v: elem %d asm %x generic %x",
					trial, m, k, n, trans, i, math.Float32bits(c2[i]), math.Float32bits(c1[i]))
			}
		}
	}
}

// ulp64 returns the distance in representable float64 values between a and b.
func ulp64(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	// Map to a monotone integer line (two's-complement style folding).
	if ua>>63 != 0 {
		ua = ^ua + 1 + (1 << 63)
	} else {
		ua += 1 << 63
	}
	if ub>>63 != 0 {
		ub = ^ub + 1 + (1 << 63)
	} else {
		ub += 1 << 63
	}
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

// fastULPBoundF64 and fastTolF32 are the fast tier's documented kernel-level
// accuracy bounds versus the exact kernels (DESIGN.md §13): the float64 lane
// stays within a few hundred ULP of the exact op order even under
// cancellation at the test shapes (k ≤ 70); the float32 lane is bounded in
// relative error with an absolute floor for cancelled outputs.
const (
	fastULPBoundF64 = 512
	fastAbsFloorF64 = 1e-12
	fastTolF32      = 1e-3
	fastAbsFloorF32 = 1e-4
)

// TestFastMulMatchesExactWithinULP bounds every fast kernel against its
// exact-tier counterpart, on the network's real shapes plus ragged and
// degenerate ones (empty, single-row).
func TestFastMulMatchesExactWithinULP(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	shapes := [][3]int{{64, 40, 48}, {64, 48, 48}, {64, 48, 32}, {64, 32, 5}, {64, 32, 4},
		{1, 1, 1}, {1, 32, 5}, {0, 4, 4}, {4, 4, 0}, {5, 3, 9}, {33, 17, 9}}
	var ws FastScratch
	var nz NZScratch
	for _, lane := range []Lane{LaneF64, LaneF32} {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := randMat(rng, m, k)
			b := randMat(rng, k, n)
			bias := randMat(rng, 1, n)
			bt := randMat(rng, n, k) // for ABt: dst is m×n
			g := randMat(rng, m, n)  // upstream gradient for AtB: dst is k×n... use fresh shapes below

			exact, fast := New(m, n), New(m, n)
			MulInto(exact, a, b)
			FastMulInto(fast, a, b, lane, &ws)
			checkFastClose(t, "FastMulInto", lane, exact, fast)

			MulBiasInto(exact, a, b, bias)
			FastMulBiasInto(fast, a, b, bias, lane, &ws)
			checkFastClose(t, "FastMulBiasInto", lane, exact, fast)

			MulABt(exact, a, bt, &nz)
			FastMulABt(fast, a, bt, lane, &ws)
			checkFastClose(t, "FastMulABt", lane, exact, fast)

			// Accumulating weight-gradient kernel: dst starts non-zero. The
			// exact reference is the NZ kernel the Dense backward uses.
			exactAcc := randMat(rng, k, n)
			fastAcc := exactAcc.Clone()
			var nz NZScratch
			MulAtBAddNZ(exactAcc, a, g, &nz)
			FastMulAtBAdd(fastAcc, a, g, lane, &ws)
			checkFastClose(t, "FastMulAtBAdd", lane, exactAcc, fastAcc)
		}
	}
}

// checkFastClose asserts the fast result is within the documented bounds of
// the exact result.
func checkFastClose(t *testing.T, op string, lane Lane, exact, fast *Matrix) {
	t.Helper()
	for i := range exact.Data {
		e, f := exact.Data[i], fast.Data[i]
		d := math.Abs(e - f)
		if lane == LaneF64 {
			if ulp64(e, f) <= fastULPBoundF64 || d <= fastAbsFloorF64 {
				continue
			}
			t.Fatalf("%s lane=%s elem %d: exact %v fast %v (%d ulp)", op, lane, i, e, f, ulp64(e, f))
		}
		scale := math.Max(1, math.Abs(e))
		if d > fastTolF32*scale && d > fastAbsFloorF32 {
			t.Fatalf("%s lane=%s elem %d: exact %v fast %v (abs err %g)", op, lane, i, e, f, d)
		}
	}
}

// TestFastKernelsZeroAllocSteadyState proves the fast tier allocates nothing
// once its scratch is warm, for both lanes — the same guarantee the exact
// tier's pinned-buffer design gives the training hot path.
func TestFastKernelsZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	a := randMat(rng, 64, 48)
	b := randMat(rng, 48, 32)
	bias := randMat(rng, 1, 32)
	g := randMat(rng, 64, 32)
	dst := New(64, 32)
	dx := New(64, 48)
	grad := New(48, 32)
	for _, lane := range []Lane{LaneF64, LaneF32} {
		var ws FastScratch
		warm := func() {
			FastMulBiasInto(dst, a, b, bias, lane, &ws)
			FastMulABt(dx, g, b, lane, &ws)
			FastMulAtBAdd(grad, a, g, lane, &ws)
		}
		warm()
		if n := testing.AllocsPerRun(10, warm); n != 0 {
			t.Fatalf("lane %s: fast kernels allocate %v per steady-state step, want 0", lane, n)
		}
	}
}

// TestFastLaneParse locks the flag spelling of the lanes.
func TestFastLaneParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Lane
		err  bool
	}{{"", LaneF64, false}, {"float64", LaneF64, false}, {"f32", LaneF32, false},
		{"float32", LaneF32, false}, {"bf16", LaneF64, true}} {
		got, err := ParseLane(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Fatalf("ParseLane(%q) = %v, %v", tc.in, got, err)
		}
	}
	if LaneF64.String() != "float64" || LaneF32.String() != "float32" {
		t.Fatal("Lane.String drifted from the flag values")
	}
}

// BenchmarkFastMulInto compares the exact and fast tiers on the trainer's
// dominant shape (64×48 · 48×48).
func BenchmarkFastMulInto(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	x := randMat(rng, 64, 48)
	w := randMat(rng, 48, 48)
	dst := New(64, 48)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulInto(dst, x, w)
		}
	})
	var ws FastScratch
	b.Run("fast-f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FastMulInto(dst, x, w, LaneF64, &ws)
		}
	})
	b.Run("fast-f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FastMulInto(dst, x, w, LaneF32, &ws)
		}
	})
}
