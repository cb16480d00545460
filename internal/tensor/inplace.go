package tensor

import (
	"fmt"
	"math"
)

// Destination-passing variants of the allocation-returning ops in matrix.go.
//
// Naming convention: an op named XxxInto writes its result into a
// caller-owned destination matrix instead of allocating a fresh one. The
// destination must already have the exact result shape (use Ensure to grow a
// reusable scratch matrix); ops panic on shape mismatch.
//
// Aliasing rules:
//
//   - Element-wise ops (AddInto, SubInto, ScaleInto, AddRowVectorInto) permit
//     the destination to alias a source: element i of the result depends only
//     on element i of the sources, so dst == a is safe and common.
//   - Matrix products (MulInto, MulABt, MulAtB) and reductions (SumRowsInto,
//     MeanRowsInto, VarRowsInto, SelectRowsInto, SoftmaxRowInto) must NOT
//     receive a destination that overlaps any source: they read source
//     elements after writing destination elements. Build with -tags
//     tensordebug to assert this at runtime.
//
// Every *Into op performs the same float64 operations in the same order as
// its allocating counterpart, so results are bit-identical.

// Ensure returns a rows×cols matrix, reusing m's backing storage when its
// capacity suffices and allocating otherwise. The contents are unspecified
// after the call (stale scratch data — overwrite before reading). Use it to
// size per-layer scratch on first use:
//
//	d.out = tensor.Ensure(d.out, x.Rows, w.Cols)
func Ensure(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if m == nil {
		return New(rows, cols)
	}
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// EnsureZero is Ensure followed by zeroing every element.
func EnsureZero(m *Matrix, rows, cols int) *Matrix {
	m = Ensure(m, rows, cols)
	m.Zero()
	return m
}

// MulInto computes dst = a × b. dst must be a.Rows×b.Cols and must not alias
// a or b.
//
// Each output element is the dot product Σ_k a[i,k]·b[k,j] accumulated in
// ascending k with a[i,k]==0 terms skipped — exactly the float64 op sequence
// of the classic zeroed-accumulator triple loop, but register-blocked four
// columns at a time so the accumulators stay out of memory.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("mulInto", dst, a.Rows, b.Cols)
	checkNoAlias("mulInto", dst, a, b)
	mulInto(dst, a, b, nil)
}

// MulBiasInto computes dst = a × b with the 1×b.Cols row vector bias added
// to every row: dst[i,j] = (Σ_k a[i,k]·b[k,j]) + bias[j]. This is the fused
// form of MulInto followed by AddRowVectorInto — the bias is added to the
// completed dot product exactly as the two-pass version does, so results
// are bit-identical, without a second pass over dst. dst must not alias a
// or b (it may not alias bias either).
func MulBiasInto(dst, a, b, bias *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: mulBiasInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b.Cols))
	}
	checkDstShape("mulBiasInto", dst, a.Rows, b.Cols)
	checkNoAlias("mulBiasInto", dst, a, b)
	checkNoAlias("mulBiasInto", dst, bias, nil)
	mulInto(dst, a, b, bias.Data)
}

// The NZ kernels (MulIntoNZ, MulBiasIntoNZ, MulAtBAddNZ) have two lanes that
// produce the same bits. The Go loops below are the definition: per output
// element a zeroed accumulator, the compacted row's terms in ascending
// order, each product rounded and then each sum, the bias (or the destination
// being accumulated into) added last. Where useAsm holds — amd64 with AVX2 —
// the leading cols&^3 columns of every compacted row go to nzRowAVX instead,
// which runs that sequence in each ymm lane: the lanes lie across output
// columns, so no element's order changes, and multiply and add are never
// fused. The Go loops keep the 1–3 column tail and the rows without
// nonzeros, are the only lane everywhere else, and are the reference
// nz_test.go holds the kernel to.

// NZScratch holds the reusable compacted-row buffers of the NZ matmul
// kernels and MulABt's k-major weight copy. One instance per owner (layer);
// not safe for concurrent use. The zero value is ready.
type NZScratch struct {
	val []float64
	off []int
	bt  []float64 // MulABt's bᵀ
}

// grow makes val and off hold at least n elements each.
func (ws *NZScratch) grow(n int) {
	if cap(ws.val) < n {
		ws.val = make([]float64, n)
		ws.off = make([]int, n)
	}
}

// compactRow collects row's nonzero entries in order: val[t] holds the t-th
// nonzero value and off[t] its index scaled by stride. The a[i,k]==0 skip of
// the reference kernels becomes "not in the list", so the branch-free inner
// loops below add exactly the same terms in exactly the same order — with no
// data-dependent branch to mispredict on ReLU-sparse activations.
// The write is unconditional and the cursor advances by a bit-computed 0/1,
// so the scan has no data-dependent branch: ReLU activations are ~half
// zeros in no predictable pattern, and a conditional append would eat a
// branch mispredict on nearly every element.
func (ws *NZScratch) compactRow(row []float64, stride int) ([]float64, []int) {
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

// MulIntoNZ is MulInto with caller-owned compaction scratch: bit-identical
// results, but a-side zero skipping costs no branches in the inner loop.
// Hot paths that multiply ReLU-sparse activations (layer forwards, weight
// gradients via the transposed input) should prefer it.
func MulIntoNZ(dst, a, b *Matrix, ws *NZScratch) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("mulIntoNZ", dst, a.Rows, b.Cols)
	checkNoAlias("mulIntoNZ", dst, a, b)
	checkDataLen("mulIntoNZ", dst)
	checkDataLen("mulIntoNZ", b)
	mulIntoNZ(dst, a, b, nil, ws)
}

// MulBiasIntoNZ is MulBiasInto with caller-owned compaction scratch.
func MulBiasIntoNZ(dst, a, b, bias *Matrix, ws *NZScratch) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: mulBiasInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b.Cols))
	}
	checkDstShape("mulBiasIntoNZ", dst, a.Rows, b.Cols)
	checkNoAlias("mulBiasIntoNZ", dst, a, b)
	checkNoAlias("mulBiasIntoNZ", dst, bias, nil)
	checkDataLen("mulBiasIntoNZ", dst)
	checkDataLen("mulBiasIntoNZ", b)
	checkDataLen("mulBiasIntoNZ", bias)
	mulIntoNZ(dst, a, b, bias.Data, ws)
}

// MulAtBAddNZ computes dst += aᵀ × b: each output element's inner product
// Σ_r a[r,i]·b[r,j] is accumulated in a register in ascending r with
// a[r,i]==0 terms skipped (MulAtB's exact op sequence), then added to dst
// with one addition — the same single add that MulAtB followed by
// AddInPlace performs, so gradient accumulation is bit-identical while
// skipping both the staging matrix and the materialised transpose: column i
// of a is compacted straight out of a. dst (a.Cols×b.Cols) must not alias
// a or b.
func MulAtBAddNZ(dst, a, b *Matrix, ws *NZScratch) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("mulAtBAddNZ", dst, a.Cols, b.Cols)
	checkNoAlias("mulAtBAddNZ", dst, a, b)
	checkDataLen("mulAtBAddNZ", dst)
	checkDataLen("mulAtBAddNZ", b)
	ac, bc := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	vc := vectorCols(bc)
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
		if vc > 0 && len(val) > 0 {
			// orow doubles as the bias row: orow[j] = s + orow[j], the one
			// add of the loops below with its operands the other way round.
			nzRowAVX(&orow[0], &bd[0], &orow[0], &val[0], &off[0], len(val), vc)
			j = vc
		}
		for ; j+4 <= bc; j += 4 {
			var s0, s1, s2, s3 float64
			for t, av := range val {
				o := off[t] + j
				bv3 := bd[o+3]
				bv2 := bd[o+2]
				bv1 := bd[o+1]
				bv0 := bd[o]
				s0 += av * bv0
				s1 += av * bv1
				s2 += av * bv2
				s3 += av * bv3
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
				s1 += av * bd[o+1]
				s0 += av * bd[o]
			}
			orow[j] += s0
			orow[j+1] += s1
		}
		for ; j < bc; j++ {
			var s float64
			for t, av := range val {
				s += av * bd[off[t]+j]
			}
			orow[j] += s
		}
	}
}

// mulIntoNZ computes dst = a×b (+bias per row when non-nil) through the
// compacted-row representation. Per output element the accumulation order
// and the skipped terms are identical to mulInto's.
func mulIntoNZ(dst, a, b *Matrix, bias []float64, ws *NZScratch) {
	ac, bc := a.Cols, b.Cols
	bd := b.Data
	vc := vectorCols(bc)
	var biasp *float64
	if vc > 0 && bias != nil {
		biasp = &bias[0]
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*ac : (i+1)*ac]
		val, off := ws.compactRow(arow, bc)
		off = off[:len(val)]
		orow := dst.Data[i*bc : (i+1)*bc]
		j := 0
		if vc > 0 && len(val) > 0 {
			nzRowAVX(&orow[0], &bd[0], biasp, &val[0], &off[0], len(val), vc)
			j = vc
		}
		for ; j+4 <= bc; j += 4 {
			var s0, s1, s2, s3 float64
			for t, av := range val {
				o := off[t] + j
				bv3 := bd[o+3]
				bv2 := bd[o+2]
				bv1 := bd[o+1]
				bv0 := bd[o]
				s0 += av * bv0
				s1 += av * bv1
				s2 += av * bv2
				s3 += av * bv3
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
				s1 += av * bd[o+1]
				s0 += av * bd[o]
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
				s += av * bd[off[t]+j]
			}
			if bias != nil {
				s += bias[j]
			}
			orow[j] = s
		}
	}
}

// mulInto is the shared kernel of MulInto and MulBiasInto; bias is nil for
// the plain product.
func mulInto(dst, a, b *Matrix, bias []float64) {
	ac, bc := a.Cols, b.Cols
	bd := b.Data
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		arow0 := a.Data[i*ac : (i+1)*ac]
		arow1 := a.Data[(i+1)*ac : (i+2)*ac]
		arow1 = arow1[:len(arow0)] // ties the lengths so arow1[k] is check-free
		orow0 := dst.Data[i*bc : (i+1)*bc]
		orow1 := dst.Data[(i+1)*bc : (i+2)*bc]
		j := 0
		for ; j+4 <= bc; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			o := j
			for k, av0 := range arow0 {
				bv3 := bd[o+3] // highest index first: the checks below fold away
				bv2 := bd[o+2]
				bv1 := bd[o+1]
				bv0 := bd[o]
				if av0 != 0 {
					s00 += av0 * bv0
					s01 += av0 * bv1
					s02 += av0 * bv2
					s03 += av0 * bv3
				}
				if av1 := arow1[k]; av1 != 0 {
					s10 += av1 * bv0
					s11 += av1 * bv1
					s12 += av1 * bv2
					s13 += av1 * bv3
				}
				o += bc
			}
			if bias != nil {
				s00 += bias[j]
				s01 += bias[j+1]
				s02 += bias[j+2]
				s03 += bias[j+3]
				s10 += bias[j]
				s11 += bias[j+1]
				s12 += bias[j+2]
				s13 += bias[j+3]
			}
			orow0[j], orow0[j+1], orow0[j+2], orow0[j+3] = s00, s01, s02, s03
			orow1[j], orow1[j+1], orow1[j+2], orow1[j+3] = s10, s11, s12, s13
		}
		for ; j < bc; j++ {
			var s0, s1 float64
			o := j
			for k, av0 := range arow0 {
				bv := bd[o]
				if av0 != 0 {
					s0 += av0 * bv
				}
				if av1 := arow1[k]; av1 != 0 {
					s1 += av1 * bv
				}
				o += bc
			}
			if bias != nil {
				s0 += bias[j]
				s1 += bias[j]
			}
			orow0[j] = s0
			orow1[j] = s1
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*ac : (i+1)*ac]
		orow := dst.Data[i*bc : (i+1)*bc]
		j := 0
		for ; j+4 <= bc; j += 4 {
			var s0, s1, s2, s3 float64
			o := j
			for _, av := range arow {
				if av != 0 {
					s0 += av * bd[o]
					s1 += av * bd[o+1]
					s2 += av * bd[o+2]
					s3 += av * bd[o+3]
				}
				o += bc
			}
			if bias != nil {
				s0 += bias[j]
				s1 += bias[j+1]
				s2 += bias[j+2]
				s3 += bias[j+3]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < bc; j++ {
			var s float64
			o := j
			for _, av := range arow {
				if av != 0 {
					s += av * bd[o]
				}
				o += bc
			}
			if bias != nil {
				s += bias[j]
			}
			orow[j] = s
		}
	}
}

// MulABt computes dst = a × bᵀ without materialising the transpose in the
// caller: dst[i,j] = Σ_k a[i,k]·b[j,k], accumulated in ascending k from a
// zeroed accumulator with no term skipped. dst must be a.Rows×b.Rows and
// must not alias a or b; ws owns the k-major copy of b the AVX lane reads.
//
// It has the NZ kernels' two lanes. The Go loops (mulABt) are the
// definition. Where useAsm holds, the leading b.Rows&^3 columns of every
// output row go to nzRowAVX instead, over bᵀ copied into ws once per call:
// the row of a is passed whole as the "compacted" row (MulABt skips no
// zeros, so neither does its kernel) and term k's offset into bᵀ is
// k·b.Rows. The Go loops keep the 1–3 column tail.
func MulABt(dst, a, b *Matrix, ws *NZScratch) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("mulABt", dst, a.Rows, b.Rows)
	checkNoAlias("mulABt", dst, a, b)
	k, n := a.Cols, b.Rows
	vc := vectorCols(n)
	if k == 0 || a.Rows == 0 {
		vc = 0
	}
	if vc > 0 {
		bt, off := ws.kMajor(b)
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := dst.Data[i*n : (i+1)*n]
			nzRowAVX(&orow[0], &bt[0], nil, &arow[0], &off[0], k, vc)
		}
	}
	mulABt(dst, a, b, vc)
}

// kMajor copies b (n×k) into ws as bᵀ (k×n) and returns it with the dense
// term offsets off[t] = t·n: the layout nzRowAVX reads a whole row of a
// against.
func (ws *NZScratch) kMajor(b *Matrix) ([]float64, []int) {
	n, k := b.Rows, b.Cols
	if cap(ws.bt) < n*k {
		ws.bt = make([]float64, n*k)
	}
	ws.grow(k)
	bt, off := ws.bt[:n*k], ws.off[:k]
	for j := 0; j < n; j++ {
		for t, v := range b.Data[j*k : (j+1)*k] {
			bt[t*n+j] = v
		}
	}
	for t := range off {
		off[t] = t * n
	}
	return bt, off
}

// mulABt is MulABt's Go lane over output columns [j0, b.Rows). Its inner
// product runs four b-rows per pass; each output element still accumulates
// Σ_k a[i,k]·b[j,k] in ascending k, independently per j, so results match
// the one-row-at-a-time loop bit for bit.
func mulABt(dst, a, b *Matrix, j0 int) {
	ac, bc := a.Cols, b.Cols
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		arow0 := a.Data[i*ac : (i+1)*ac]
		arow1 := a.Data[(i+1)*ac : (i+2)*ac]
		orow0 := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		orow1 := dst.Data[(i+1)*dst.Cols : (i+2)*dst.Cols]
		j := j0
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
		j := j0
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

// MulAtB computes dst = aᵀ × b without materialising the transpose. dst must
// be a.Cols×b.Cols and must not alias a or b.
// MulAtB accumulates each output element Σ_r a[r,i]·b[r,j] in ascending r
// with a[r,i]==0 terms skipped — the float64 op sequence of the zeroed
// r-outer loop — register-blocked four b-columns at a time.
func MulAtB(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("mulAtB", dst, a.Cols, b.Cols)
	checkNoAlias("mulAtB", dst, a, b)
	ac, bc := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	i := 0
	for ; i+2 <= ac; i += 2 {
		orow0 := dst.Data[i*bc : (i+1)*bc]
		orow1 := dst.Data[(i+1)*bc : (i+2)*bc]
		j := 0
		for ; j+4 <= bc; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			oa, ob := i, j
			for r := 0; r < a.Rows; r++ {
				av1 := ad[oa+1] // highest index first: ad[oa] is then check-free
				av0 := ad[oa]
				bv3 := bd[ob+3]
				bv2 := bd[ob+2]
				bv1 := bd[ob+1]
				bv0 := bd[ob]
				if av0 != 0 {
					s00 += av0 * bv0
					s01 += av0 * bv1
					s02 += av0 * bv2
					s03 += av0 * bv3
				}
				if av1 != 0 {
					s10 += av1 * bv0
					s11 += av1 * bv1
					s12 += av1 * bv2
					s13 += av1 * bv3
				}
				oa += ac
				ob += bc
			}
			orow0[j], orow0[j+1], orow0[j+2], orow0[j+3] = s00, s01, s02, s03
			orow1[j], orow1[j+1], orow1[j+2], orow1[j+3] = s10, s11, s12, s13
		}
		for ; j < bc; j++ {
			var s0, s1 float64
			oa, ob := i, j
			for r := 0; r < a.Rows; r++ {
				bv := bd[ob]
				if av0 := ad[oa]; av0 != 0 {
					s0 += av0 * bv
				}
				if av1 := ad[oa+1]; av1 != 0 {
					s1 += av1 * bv
				}
				oa += ac
				ob += bc
			}
			orow0[j] = s0
			orow1[j] = s1
		}
	}
	for ; i < ac; i++ {
		orow := dst.Data[i*bc : (i+1)*bc]
		j := 0
		for ; j+4 <= bc; j += 4 {
			var s0, s1, s2, s3 float64
			oa, ob := i, j
			for r := 0; r < a.Rows; r++ {
				if av := ad[oa]; av != 0 {
					s0 += av * bd[ob]
					s1 += av * bd[ob+1]
					s2 += av * bd[ob+2]
					s3 += av * bd[ob+3]
				}
				oa += ac
				ob += bc
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < bc; j++ {
			var s float64
			oa, ob := i, j
			for r := 0; r < a.Rows; r++ {
				if av := ad[oa]; av != 0 {
					s += av * bd[ob]
				}
				oa += ac
				ob += bc
			}
			orow[j] = s
		}
	}
}

// TransposeInto writes mᵀ into dst (m.Cols×m.Rows). dst must not alias m.
func TransposeInto(dst, m *Matrix) {
	checkDstShape("transposeInto", dst, m.Cols, m.Rows)
	checkNoAlias("transposeInto", dst, m, nil)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			dst.Data[j*m.Rows+i] = v
		}
	}
}

// AddInto computes dst = a + b element-wise. dst may alias a or b.
func AddInto(dst, a, b *Matrix) {
	checkSameShape("addInto", a, b)
	checkDstShape("addInto", dst, a.Rows, a.Cols)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubInto computes dst = a − b element-wise. dst may alias a or b.
func SubInto(dst, a, b *Matrix) {
	checkSameShape("subInto", a, b)
	checkDstShape("subInto", dst, a.Rows, a.Cols)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// ScaleInto computes dst = m · s element-wise. dst may alias m.
func ScaleInto(dst, m *Matrix, s float64) {
	checkDstShape("scaleInto", dst, m.Rows, m.Cols)
	for i, v := range m.Data {
		dst.Data[i] = v * s
	}
}

// AddRowVectorInto computes dst = m + v (the 1×Cols row vector v added to
// every row). dst may alias m.
func AddRowVectorInto(dst, m, v *Matrix) {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: addRowVector shape mismatch %dx%d + %dx%d", m.Rows, m.Cols, v.Rows, v.Cols))
	}
	checkDstShape("addRowVectorInto", dst, m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := dst.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			orow[j] = x + v.Data[j]
		}
	}
}

// SumRowsInto writes the column sums of m into the 1×Cols dst. dst must not
// alias m.
func SumRowsInto(dst, m *Matrix) {
	checkDstShape("sumRowsInto", dst, 1, m.Cols)
	checkNoAlias("sumRowsInto", dst, m, nil)
	dst.Zero()
	n := m.Cols
	sum := dst.Data[:n] // a local slice: no reload of dst.Data per element
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*n:][:n]
		for j := 0; j < n; j++ {
			sum[j] += row[j]
		}
	}
}

// MeanRowsInto writes the column means of m into the 1×Cols dst. dst must
// not alias m.
func MeanRowsInto(dst, m *Matrix) {
	SumRowsInto(dst, m)
	if m.Rows > 0 {
		dst.ScaleInPlace(1 / float64(m.Rows))
	}
}

// VarRowsInto writes the (biased) column variances of m around mean into the
// 1×Cols dst. dst must not alias m or mean.
func VarRowsInto(dst, m, mean *Matrix) {
	if mean.Rows != 1 || mean.Cols != m.Cols {
		panic("tensor: varRows mean shape mismatch")
	}
	checkDstShape("varRowsInto", dst, 1, m.Cols)
	checkNoAlias("varRowsInto", dst, m, mean)
	dst.Zero()
	if m.Rows == 0 {
		return
	}
	n := m.Cols
	sum, mu := dst.Data[:n], mean.Data[:n] // as in SumRowsInto
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*n:][:n]
		for j := 0; j < n; j++ {
			d := row[j] - mu[j]
			sum[j] += d * d
		}
	}
	dst.ScaleInPlace(1 / float64(m.Rows))
}

// SelectRowsInto copies m's rows at the given indices, in order, into dst
// (len(idx)×m.Cols). dst must not alias m.
func SelectRowsInto(dst, m *Matrix, idx []int) {
	checkDstShape("selectRowsInto", dst, len(idx), m.Cols)
	checkNoAlias("selectRowsInto", dst, m, nil)
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
}

// SoftmaxRowInto computes the numerically-stable softmax of row into dst
// (equal length). dst must not alias row.
func SoftmaxRowInto(dst, row []float64) {
	if len(dst) != len(row) {
		panic("tensor: softmaxRowInto length mismatch")
	}
	if len(row) == 0 {
		return
	}
	checkNoAliasSlice("softmaxRowInto", dst, row)
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// checkDataLen panics when m.Data is shorter than m's shape says. The NZ
// entry points establish it once per call for every operand whose address
// goes to nzRowAVX, which has no bounds checks of its own.
func checkDataLen(op string, m *Matrix) {
	if len(m.Data) < m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: %s operand %dx%d holds %d elements", op, m.Rows, m.Cols, len(m.Data)))
	}
}

// vectorCols returns how many leading columns of an n-wide output row go to
// nzRowAVX: n rounded down to a multiple of 4 where the kernel runs, else 0.
func vectorCols(n int) int {
	if useAsm {
		return n &^ 3
	}
	return 0
}

func checkDstShape(op string, dst *Matrix, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s destination shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}
