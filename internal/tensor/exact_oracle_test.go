package tensor

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// The exact tier's kernels as they were before the backward pass was made
// cheaper, kept as oracles: every rewrite since must give their bits, on
// random and on salted inputs (both zeros, denormals, both infinities, NaN).

// mulABtOracle is MulABt before it took an AVX lane, verbatim: the scalar
// loops that define its bits. dst must be a.Rows×b.Rows and must not alias a
// or b.
// MulABt's inner product runs four b-rows per pass; each output element
// still accumulates Σ_k a[i,k]·b[j,k] in ascending k, independently per j,
// so results match the one-row-at-a-time loop bit for bit.
func mulABtOracle(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("mulABt", dst, a.Rows, b.Rows)
	checkNoAlias("mulABt", dst, a, b)
	ac, bc := a.Cols, b.Cols
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		arow0 := a.Data[i*ac : (i+1)*ac]
		arow1 := a.Data[(i+1)*ac : (i+2)*ac]
		orow0 := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		orow1 := dst.Data[(i+1)*dst.Cols : (i+2)*dst.Cols]
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*bc : (j+1)*bc]
			b1 := b.Data[(j+1)*bc : (j+2)*bc]
			b2 := b.Data[(j+2)*bc : (j+3)*bc]
			b3 := b.Data[(j+3)*bc : (j+4)*bc]
			// a.Cols == b.Cols here, so these reslices are no-ops that tie
			// every row's length to arow0's, making the k-indexing check-free.
			arow1 = arow1[:len(arow0)]
			b0, b1, b2, b3 = b0[:len(arow0)], b1[:len(arow0)], b2[:len(arow0)], b3[:len(arow0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, av0 := range arow0 {
				av1 := arow1[k]
				bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			orow0[j], orow0[j+1], orow0[j+2], orow0[j+3] = s00, s01, s02, s03
			orow1[j], orow1[j+1], orow1[j+2], orow1[j+3] = s10, s11, s12, s13
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*bc : (j+1)*bc]
			var s0, s1 float64
			for k, av0 := range arow0 {
				bv := brow[k]
				s0 += av0 * bv
				s1 += arow1[k] * bv
			}
			orow0[j] = s0
			orow1[j] = s1
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*ac : (i+1)*ac]
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*bc : (j+1)*bc]
			b1 := b.Data[(j+1)*bc : (j+2)*bc]
			b2 := b.Data[(j+2)*bc : (j+3)*bc]
			b3 := b.Data[(j+3)*bc : (j+4)*bc]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*bc : (j+1)*bc]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// sumRowsIntoOracle and varRowsIntoOracle are SumRowsInto and VarRowsInto
// before they read their rows through local slices, verbatim.
func sumRowsIntoOracle(dst, m *Matrix) {
	checkDstShape("sumRowsInto", dst, 1, m.Cols)
	checkNoAlias("sumRowsInto", dst, m, nil)
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			dst.Data[j] += x
		}
	}
}

func varRowsIntoOracle(dst, m, mean *Matrix) {
	if mean.Rows != 1 || mean.Cols != m.Cols {
		panic("tensor: varRows mean shape mismatch")
	}
	checkDstShape("varRowsInto", dst, 1, m.Cols)
	checkNoAlias("varRowsInto", dst, m, mean)
	dst.Zero()
	if m.Rows == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			d := x - mean.Data[j]
			dst.Data[j] += d * d
		}
	}
	dst.ScaleInPlace(1 / float64(m.Rows))
}

// oracleShapes are the m×k·(n×k)ᵀ shapes the oracle tests cover: one row,
// one column, every n%4 tail, an empty inner dimension and the student's
// 64-row mini-batch at its layer widths.
var oracleShapes = [][3]int{
	{1, 1, 1}, {1, 48, 48}, {64, 48, 1}, {3, 5, 2}, {5, 7, 3}, {2, 9, 4}, {7, 3, 5},
	{4, 0, 6}, {0, 4, 8}, {64, 48, 48}, {64, 5, 32}, {64, 4, 32}, {33, 17, 49}, {6, 50, 100},
}

// TestMulABtMatchesOracle holds MulABt to mulABtOracle bit for bit through
// both lanes (useAsm as the CPU allows, then off), writing nothing outside
// the destination.
func TestMulABtMatchesOracle(t *testing.T) {
	asm := useAsm
	defer func() { useAsm = asm }()
	rng := rand.New(rand.NewPCG(41, 43))
	var ws NZScratch
	for c, sh := range oracleShapes {
		for _, salt := range []bool{false, true} {
			m, k, n := sh[0], sh[1], sh[2]
			a := saltedMatrix(m, k, 0.3, salt, rng)
			b := saltedMatrix(n, k, 0.1, salt, rng)
			want := New(m, n)
			mulABtOracle(want, a, b)
			for _, lane := range []bool{asm, false} {
				useAsm = lane
				got, intact := guarded(m, n, nil)
				MulABt(got, a, b, &ws)
				if !intact() {
					t.Fatalf("case %d %dx%d·(%dx%d)ᵀ asm=%v: wrote outside the destination", c, m, k, n, k, lane)
				}
				requireSameBits(t, "MulABt", got, want)
			}
		}
	}
}

// TestRowReductionsMatchOracle holds SumRowsInto and VarRowsInto to their
// oracles bit for bit.
func TestRowReductionsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	for _, sh := range oracleShapes {
		for _, salt := range []bool{false, true} {
			m := saltedMatrix(sh[0], sh[2], 0.2, salt, rng)
			sum, want := New(1, m.Cols), New(1, m.Cols)
			SumRowsInto(sum, m)
			sumRowsIntoOracle(want, m)
			requireSameBits(t, "SumRowsInto", sum, want)
			mean := saltedMatrix(1, m.Cols, 0.1, salt, rng)
			VarRowsInto(sum, m, mean)
			varRowsIntoOracle(want, m, mean)
			requireSameBits(t, "VarRowsInto", sum, want)
		}
	}
}
