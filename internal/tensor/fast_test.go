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

// fastULPBoundF64 is the fast tier's documented kernel-level accuracy bound
// versus the exact kernels (DESIGN.md §13): it stays within a few hundred ULP
// of the exact op order even under cancellation at the test shapes (k ≤ 70),
// with an absolute floor for cancelled outputs.
const (
	fastULPBoundF64 = 512
	fastAbsFloorF64 = 1e-12
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
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		bias := randMat(rng, 1, n)
		bt := randMat(rng, n, k) // for ABt: dst is m×n
		g := randMat(rng, m, n)  // upstream gradient for AtB: dst is k×n... use fresh shapes below

		exact, fast := New(m, n), New(m, n)
		MulBiasIntoNZ(exact, a, b, bias, &nz)
		FastMulBiasInto(fast, a, b, bias, LaneF64, &ws)
		checkFastClose(t, "FastMulBiasInto", exact, fast)

		MulABt(exact, a, bt, &nz)
		FastMulABt(fast, a, bt, LaneF64, &ws)
		checkFastClose(t, "FastMulABt", exact, fast)

		// Accumulating weight-gradient kernel: dst starts non-zero. The
		// exact reference is the NZ kernel the Dense backward uses.
		exactAcc := randMat(rng, k, n)
		fastAcc := exactAcc.Clone()
		var nz NZScratch
		MulAtBAddNZ(exactAcc, a, g, &nz)
		FastMulAtBAdd(fastAcc, a, g, LaneF64, &ws)
		checkFastClose(t, "FastMulAtBAdd", exactAcc, fastAcc)
	}
}

// checkFastClose asserts the fast result is within the documented bounds of
// the exact result.
func checkFastClose(t *testing.T, op string, exact, fast *Matrix) {
	t.Helper()
	for i := range exact.Data {
		e, f := exact.Data[i], fast.Data[i]
		if ulp64(e, f) > fastULPBoundF64 && math.Abs(e-f) > fastAbsFloorF64 {
			t.Fatalf("%s elem %d: exact %v fast %v (%d ulp)", op, i, e, f, ulp64(e, f))
		}
	}
}

// TestFastKernelsZeroAllocSteadyState proves the fast tier allocates nothing
// once its scratch is warm — the same guarantee the exact tier's
// pinned-buffer design gives the training hot path.
func TestFastKernelsZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	a := randMat(rng, 64, 48)
	b := randMat(rng, 48, 32)
	bias := randMat(rng, 1, 32)
	g := randMat(rng, 64, 32)
	dst := New(64, 32)
	dx := New(64, 48)
	grad := New(48, 32)
	var ws FastScratch
	warm := func() {
		FastMulBiasInto(dst, a, b, bias, LaneF64, &ws)
		FastMulABt(dx, g, b, LaneF64, &ws)
		FastMulAtBAdd(grad, a, g, LaneF64, &ws)
	}
	warm()
	if n := testing.AllocsPerRun(10, warm); n != 0 {
		t.Fatalf("fast kernels allocate %v per steady-state step, want 0", n)
	}
}

// TestFastLaneString locks the lane's printed name, which nn.Compute.String
// embeds ("fast/float64").
func TestFastLaneString(t *testing.T) {
	if LaneF64.String() != "float64" {
		t.Fatalf("LaneF64.String() = %q, want float64", LaneF64.String())
	}
}

// BenchmarkFastMulBiasInto compares the exact and fast tiers' layer
// forward on the trainer's dominant shape (64×48 · 48×48).
func BenchmarkFastMulBiasInto(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	x := randMat(rng, 64, 48)
	w := randMat(rng, 48, 48)
	bias := randMat(rng, 1, 48)
	dst := New(64, 48)
	var nz NZScratch
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulBiasIntoNZ(dst, x, w, bias, &nz)
		}
	})
	var ws FastScratch
	b.Run("fast-f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FastMulBiasInto(dst, x, w, bias, LaneF64, &ws)
		}
	})
}
