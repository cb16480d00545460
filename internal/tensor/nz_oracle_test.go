package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// The exact products before they became dense, kept as oracles: the Go
// loops of MulBiasIntoNZ (mulIntoNZ) and MulAtBAddNZ as they were when both
// skipped every a[i,k]==0 term by compacting the row (or column) of a to its
// nonzeros first. They are verbatim but for the float64(x*y) around each
// product, which keeps arm64 from fusing them, and the vector branch, which
// they no longer take.
//
// The dense sum equals the zero-skipping one only while the right operand
// (b, and the gradient of aᵀ×b) is finite: a skipped 0·b[k,j] is ±0 then,
// and adding ±0 to an accumulator that started at +0 changes nothing, since
// round-to-nearest addition makes −0 only from two −0s. A zero a[i,k] met by
// an infinite or NaN b[k,j] adds NaN to the dense sum and nothing to the
// skipping one. So the right operands below are finite, while the left
// operands and biases carry every special value, Inf and NaN included.

// zeroSkipScratch holds the compacted rows of the oracles.
type zeroSkipScratch struct {
	val []float64
	off []int
}

func (ws *zeroSkipScratch) grow(n int) {
	if cap(ws.val) < n {
		ws.val = make([]float64, n)
		ws.off = make([]int, n)
	}
}

// compactRow collects row's nonzero entries in order: val[t] holds the t-th
// nonzero value and off[t] its index scaled by stride.
func (ws *zeroSkipScratch) compactRow(row []float64, stride int) ([]float64, []int) {
	ws.grow(len(row))
	val, off := ws.val[:len(row)], ws.off[:len(row)]
	n := 0
	o := 0
	for _, v := range row {
		val[n], off[n] = v, o
		u := math.Float64bits(v) << 1 // drop the sign: ±0 are the only zeros
		n += int((u | -u) >> 63)      // +1 iff v != 0
		o += stride
	}
	return val[:n], off[:n]
}

// mulIntoNZOracle is the old mulIntoNZ: dst = a×b (+bias per row when
// non-nil) over the compacted rows of a.
func mulIntoNZOracle(dst, a, b *Matrix, bias []float64, ws *zeroSkipScratch) {
	ac, bc := a.Cols, b.Cols
	bd := b.Data
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*ac : (i+1)*ac]
		val, off := ws.compactRow(arow, bc)
		off = off[:len(val)]
		orow := dst.Data[i*bc : (i+1)*bc]
		j := 0
		for ; j+4 <= bc; j += 4 {
			var s0, s1, s2, s3 float64
			for t, av := range val {
				o := off[t] + j
				bv3 := bd[o+3]
				bv2 := bd[o+2]
				bv1 := bd[o+1]
				bv0 := bd[o]
				s0 += float64(av * bv0)
				s1 += float64(av * bv1)
				s2 += float64(av * bv2)
				s3 += float64(av * bv3)
			}
			if bias != nil {
				s0 += bias[j]
				s1 += bias[j+1]
				s2 += bias[j+2]
				s3 += bias[j+3]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j+2 <= bc; j += 2 {
			var s0, s1 float64
			for t, av := range val {
				o := off[t] + j
				s1 += float64(av * bd[o+1])
				s0 += float64(av * bd[o])
			}
			if bias != nil {
				s0 += bias[j]
				s1 += bias[j+1]
			}
			orow[j], orow[j+1] = s0, s1
		}
		for ; j < bc; j++ {
			var s float64
			for t, av := range val {
				s += float64(av * bd[off[t]+j])
			}
			if bias != nil {
				s += bias[j]
			}
			orow[j] = s
		}
	}
}

// mulAtBAddNZOracle is the old MulAtBAddNZ: dst += aᵀ×b over the compacted
// columns of a.
func mulAtBAddNZOracle(dst, a, b *Matrix, ws *zeroSkipScratch) {
	ac, bc := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	ws.grow(a.Rows)
	for i := 0; i < ac; i++ {
		// Compact column i of a: val[t] = a[r_t,i], off[t] = r_t·bc, with
		// the same branch-free cursor trick as compactRow.
		val, off := ws.val[:a.Rows], ws.off[:a.Rows]
		n := 0
		oa, ob := i, 0
		for r := 0; r < a.Rows; r++ {
			v := ad[oa]
			val[n], off[n] = v, ob
			u := math.Float64bits(v) << 1
			n += int((u | -u) >> 63)
			oa += ac
			ob += bc
		}
		val, off = val[:n], off[:n]
		off = off[:len(val)]
		orow := dst.Data[i*bc : (i+1)*bc]
		j := 0
		for ; j+4 <= bc; j += 4 {
			var s0, s1, s2, s3 float64
			for t, av := range val {
				o := off[t] + j
				bv3 := bd[o+3]
				bv2 := bd[o+2]
				bv1 := bd[o+1]
				bv0 := bd[o]
				s0 += float64(av * bv0)
				s1 += float64(av * bv1)
				s2 += float64(av * bv2)
				s3 += float64(av * bv3)
			}
			orow[j] += s0
			orow[j+1] += s1
			orow[j+2] += s2
			orow[j+3] += s3
		}
		for ; j+2 <= bc; j += 2 {
			var s0, s1 float64
			for t, av := range val {
				o := off[t] + j
				s1 += float64(av * bd[o+1])
				s0 += float64(av * bd[o])
			}
			orow[j] += s0
			orow[j+1] += s1
		}
		for ; j < bc; j++ {
			var s float64
			for t, av := range val {
				s += float64(av * bd[off[t]+j])
			}
			orow[j] += s
		}
	}
}

// finiteMatrix is a rows×cols right operand with the given share of zeros,
// each of either sign, and about one element in ten replaced by a finite
// value where a lane could part ways with the scalar loop: a denormal, or
// ±MaxFloat64, whose products overflow the accumulator to ±Inf.
func finiteMatrix(rows, cols int, sparsity float64, rng *rand.Rand) *Matrix {
	specials := []float64{
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.MaxFloat64, -math.MaxFloat64,
	}
	m := New(rows, cols)
	for i := range m.Data {
		switch {
		case rng.Float64() < sparsity:
			m.Data[i] = math.Copysign(0, float64(rng.IntN(2))-0.5)
		case rng.IntN(10) == 0:
			m.Data[i] = specials[rng.IntN(len(specials))]
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// headShapes are the m×k·k×n shapes of the student's class and box heads:
// 1–9 inference rows into 2-, 4- and 5-wide outputs from 32 or 64 inputs,
// and the weight gradient's transposed form, where the head's inputs are
// the rows and the mini-batch is the inner dimension.
func headShapes() [][3]int {
	var shapes [][3]int
	for _, n := range []int{2, 4, 5} {
		for _, k := range []int{32, 64} {
			for m := 1; m <= 9; m++ {
				shapes = append(shapes, [3]int{m, k, n}, [3]int{k, m, n})
			}
		}
	}
	return shapes
}

// TestExactProductsMatchZeroSkipOracle holds MulBiasIntoNZ and MulAtBAddNZ,
// through both lanes (useAsm as the CPU allows, then off), to the
// zero-skipping loops they replaced, bit for bit, on left operands with 0,
// 50, 95 and 100% zeros and finite right operands.
func TestExactProductsMatchZeroSkipOracle(t *testing.T) {
	asm := useAsm
	defer func() { useAsm = asm }()
	rng := rand.New(rand.NewPCG(67, 71))
	var ws NZScratch
	var zs zeroSkipScratch
	shapes := append(append([][3]int(nil), oracleShapes...), headShapes()...)
	for c, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, sp := range []float64{0, 0.5, 0.95, 1} {
			shape := fmt.Sprintf(" case %d %dx%d·%dx%d sparsity %v", c, m, k, k, n, sp)
			a := saltedMatrix(m, k, sp, true, rng)
			b := finiteMatrix(k, n, 0.1, rng)
			bias := saltedMatrix(1, n, 0.1, true, rng)
			want := New(m, n)
			mulIntoNZOracle(want, a, b, bias.Data, &zs)

			at := saltedMatrix(k, m, sp, true, rng)
			g := finiteMatrix(k, n, 0.1, rng)
			acc := saltedMatrix(m, n, 0.1, true, rng)
			wantAcc := acc.Clone()
			mulAtBAddNZOracle(wantAcc, at, g, &zs)

			for _, lane := range []bool{asm, false} {
				useAsm = lane
				got, intact := guarded(m, n, nil)
				MulBiasIntoNZ(got, a, b, bias, &ws)
				if !intact() {
					t.Fatalf("MulBiasIntoNZ%s asm=%v: wrote outside the destination", shape, lane)
				}
				requireSameBits(t, fmt.Sprintf("MulBiasIntoNZ%s asm=%v", shape, lane), got, want)

				got, intact = guarded(m, n, acc)
				MulAtBAddNZ(got, at, g, &ws)
				if !intact() {
					t.Fatalf("MulAtBAddNZ%s asm=%v: wrote outside the destination", shape, lane)
				}
				requireSameBits(t, fmt.Sprintf("MulAtBAddNZ%s asm=%v", shape, lane), got, wantAcc)
			}
		}
	}
}
