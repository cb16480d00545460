package tensor

import (
	"math/rand/v2"
	"testing"
)

// sparseMatrix returns an m with values drawn from rng; sparsity in [0,1)
// zeroes that fraction of entries (the ReLU-sparse case the NZ kernels are
// built for).
func sparseMatrix(rows, cols int, sparsity float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float64() < sparsity {
			continue
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// requireIdentical asserts got and want match bit for bit — the compute
// core's contract is exact equality, not epsilon closeness.
func requireIdentical(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", op, i, got.Data[i], want.Data[i])
		}
	}
}

// referenceMatMul is the seed repo's original zeroed-accumulator triple
// loop, kept verbatim as the oracle every optimised kernel must match bit
// for bit.
func referenceMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func referenceTMatMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		brow := b.Data[r*b.Cols : (r+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func referenceMatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

// TestKernelsBitIdenticalToReference drives every optimised matmul kernel
// across shapes (including the narrow head shapes, odd tails and 1-row
// fronts of the student) and sparsity levels, asserting bit-identical
// results against the reference loops.
func TestKernelsBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	shapes := [][3]int{ // m×k · k×n
		{64, 24, 48}, {64, 32, 6}, {64, 32, 4}, {3, 48, 32}, {1, 24, 48},
		{2, 5, 7}, {5, 3, 2}, {7, 1, 1}, {64, 48, 48}, {33, 17, 9},
	}
	for _, sp := range []float64{0, 0.5, 0.95} {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := sparseMatrix(m, k, sp, rng)
			b := sparseMatrix(k, n, sp/2, rng)
			want := referenceMatMul(a, b)

			got := New(m, n)
			MulInto(got, a, b)
			requireIdentical(t, "MulInto", got, want)

			var ws NZScratch
			got2 := New(m, n)
			MulIntoNZ(got2, a, b, &ws)
			requireIdentical(t, "MulIntoNZ", got2, want)

			bias := sparseMatrix(1, n, 0, rng)
			wantBias := Add(want, wantRowBroadcast(bias, m))
			got3 := New(m, n)
			MulBiasInto(got3, a, b, bias)
			requireIdentical(t, "MulBiasInto", got3, wantBias)
			got4 := New(m, n)
			MulBiasIntoNZ(got4, a, b, bias, &ws)
			requireIdentical(t, "MulBiasIntoNZ", got4, wantBias)

			// aᵀ×b: reuse a as the k×m operand.
			at := sparseMatrix(k, m, sp, rng)
			wantT := referenceTMatMul(at, randomCompat(at, n, rng, &b))
			gotT := New(at.Cols, b.Cols)
			MulAtB(gotT, at, b)
			requireIdentical(t, "MulAtB", gotT, wantT)

			acc := sparseMatrix(at.Cols, b.Cols, 0, rng)
			wantAcc := Add(acc, wantT)
			MulAtBAddNZ(acc, at, b, &ws)
			requireIdentical(t, "MulAtBAddNZ", acc, wantAcc)

			// a×bᵀ: b2 shares a's column count.
			b2 := sparseMatrix(n, k, sp/2, rng)
			wantBt := referenceMatMulT(a, b2)
			gotBt := New(a.Rows, b2.Rows)
			MulABt(gotBt, a, b2, &ws)
			requireIdentical(t, "MulABt", gotBt, wantBt)
		}
	}
}

// randomCompat regenerates *b as an at.Rows×n matrix so the aᵀ×b pair is
// shape-compatible, returning the new b.
func randomCompat(at *Matrix, n int, rng *rand.Rand, b **Matrix) *Matrix {
	*b = sparseMatrix(at.Rows, n, 0.3, rng)
	return *b
}

// wantRowBroadcast expands a 1×n row to rows×n for the bias oracle.
func wantRowBroadcast(v *Matrix, rows int) *Matrix {
	out := New(rows, v.Cols)
	for i := 0; i < rows; i++ {
		copy(out.Row(i), v.Data)
	}
	return out
}

// TestEnsureReusesStorage locks the Ensure contract: growth reallocates,
// shrinking reslices in place.
func TestEnsureReusesStorage(t *testing.T) {
	m := Ensure(nil, 4, 8)
	if m.Rows != 4 || m.Cols != 8 {
		t.Fatalf("Ensure(nil) shape %dx%d", m.Rows, m.Cols)
	}
	data := &m.Data[0]
	m2 := Ensure(m, 2, 8)
	if m2 != m || &m2.Data[0] != data {
		t.Fatal("Ensure shrink must reuse the backing array")
	}
	if len(m2.Data) != 16 {
		t.Fatalf("Ensure shrink len %d", len(m2.Data))
	}
	m3 := Ensure(m, 8, 8)
	if len(m3.Data) != 64 {
		t.Fatalf("Ensure grow len %d", len(m3.Data))
	}
}

// TestPoolRecycles locks the Pool contract: same-size Get after Put returns
// a zeroed reused buffer; Get never returns stale contents.
func TestPoolRecycles(t *testing.T) {
	p := NewPool()
	m := p.Get(3, 5)
	m.Fill(7)
	backing := &m.Data[0]
	p.Put(m)
	m2 := p.Get(5, 3) // same element count, different shape
	if &m2.Data[0] != backing {
		t.Fatal("Pool.Get should reuse the Put buffer of equal size")
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("Pool.Get must zero recycled buffers")
		}
	}
	if m3 := p.Get(3, 5); &m3.Data[0] == backing {
		t.Fatal("Pool handed out the same buffer twice")
	}
}

// TestFromSliceCopy locks the copying alternative to FromSlice: mutating
// the source afterwards must not affect the matrix.
func TestFromSliceCopy(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	m := FromSliceCopy(2, 2, src)
	src[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("FromSliceCopy must not alias the source slice")
	}
	aliased := FromSlice(2, 2, src)
	src[1] = 42
	if aliased.Data[1] != 42 {
		t.Fatal("FromSlice documents aliasing; expected shared storage")
	}
}
