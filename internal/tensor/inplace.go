package tensor

import (
	"fmt"
	"math"
)

// Destination-passing ops.
//
// Naming convention: an op named XxxInto (and the exact matrix products
// MulBiasIntoNZ, MulAtBAddNZ and MulABt) writes
// its result into a caller-owned destination matrix instead of allocating a
// fresh one. The destination must already have the exact result shape (use
// Ensure to grow a reusable scratch matrix); ops panic on shape mismatch.
//
// Aliasing rule: the matrix products (MulBiasIntoNZ, MulAtBAddNZ, MulABt)
// and the reductions (SumRowsInto, MeanRowsInto, VarRowsInto,
// SelectRowsInto, SoftmaxRowInto) must NOT receive a destination that
// overlaps any source: they read source elements after writing destination
// elements. Build with -tags tensordebug to assert this at runtime.

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

// The exact products MulBiasIntoNZ and MulAtBAddNZ are one computation,
// exactProducts, with two lanes that produce the same bits. The Go loops
// (exactProductsGo) are the definition: per output element a zeroed
// accumulator, every term in ascending k, each product rounded and then
// added, the bias (or the destination being accumulated into) added last.
// No term is skipped. Where useAsm holds — amd64 with AVX2 — the vector
// lane runs that sequence in each ymm lane: the lanes lie across output
// columns, so no element's order changes, and multiply and add are never
// fused. Outputs at least 8 wide go row by row to nzRowAVX; narrower ones
// (the student's class and box heads) go to nzNarrowAVX, which blocks 4
// rows so that the 1–2 column vectors of a row are not a lone add chain.
// nz_test.go holds both lanes to the Go loops, and nz_oracle_test.go holds
// them to the zero-skipping loops they replaced.
//
// Skipping a zero term never changed a bit while b is finite: the
// accumulator starts at +0, a round-to-nearest sum is −0 only when both
// addends are −0, so the accumulator is never −0, and adding a ±0 product to
// it changes nothing. An infinite or NaN b[k,j] met by a zero a[i,k] is the
// difference: 0·Inf is NaN, so non-finite weights now propagate where the
// skip masked them. The NZ in the entry points' names (and NZScratch's) is
// from the zero-skipping kernels; it stays only because the repo benchmark
// calls them by it.

// NZScratch holds the reusable buffers of the exact products: the dense
// term offsets nzRowAVX reads, MulAtBAddNZ's copy of one column of a and
// MulABt's k-major weight copy. One instance per owner (layer); not safe for
// concurrent use. The zero value is ready.
type NZScratch struct {
	val []float64 // a strided row of a, made contiguous for nzRowAVX
	off []int     // off[t] = t·n
	bt  []float64 // MulABt's bᵀ
}

// denseOffsets returns off[t] = t·n for t in [0, k): where term t's row
// starts in a k×n right operand, the layout nzRowAVX reads.
func (ws *NZScratch) denseOffsets(k, n int) []int {
	if cap(ws.off) < k {
		ws.off = make([]int, k)
	}
	off := ws.off[:k]
	for t := range off {
		off[t] = t * n
	}
	return off
}

// stridedRow copies a[i·ars+t·acs], t in [0, k), into ws and returns it.
func (ws *NZScratch) stridedRow(a []float64, i, k, ars, acs int) []float64 {
	if cap(ws.val) < k {
		ws.val = make([]float64, k)
	}
	val := ws.val[:k]
	o := i * ars
	for t := range val {
		val[t] = a[o]
		o += acs
	}
	return val
}

// MulBiasIntoNZ computes dst = a × b with the 1×b.Cols row vector bias
// added to every row: dst[i,j] = (Σ_k a[i,k]·b[k,j]) + bias[j], the dot
// product accumulated in ascending k and the bias added to the completed
// sum. ws holds the kernel's term offsets. dst must not alias a, b or bias.
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
	checkDataLen("mulBiasIntoNZ", a)
	checkDataLen("mulBiasIntoNZ", b)
	checkDataLen("mulBiasIntoNZ", bias)
	exactProducts(dst.Data, a.Data, b.Data, bias.Data, a.Rows, a.Cols, b.Cols, a.Cols, 1, 0, ws)
}

// MulAtBAddNZ computes dst += aᵀ × b: each output element's inner product
// Σ_r a[r,i]·b[r,j] is accumulated in a register in ascending r, then added
// to dst with one addition — the sum a staged aᵀ×b followed by AddInPlace
// would give, without the staging matrix or the materialised transpose.
// dst (a.Cols×b.Cols) must not alias a or b.
func MulAtBAddNZ(dst, a, b *Matrix, ws *NZScratch) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("mulAtBAddNZ", dst, a.Cols, b.Cols)
	checkNoAlias("mulAtBAddNZ", dst, a, b)
	checkDataLen("mulAtBAddNZ", dst)
	checkDataLen("mulAtBAddNZ", a)
	checkDataLen("mulAtBAddNZ", b)
	// dst doubles as the bias, one row per output row: dst[i,j] = s + dst[i,j].
	exactProducts(dst.Data, a.Data, b.Data, dst.Data, a.Cols, a.Rows, b.Cols, 1, a.Cols, b.Cols, ws)
}

// exactProducts computes, for every i in [0, m) and j in [0, n),
//
//	dst[i·n+j] = (Σ_t a[i·ars+t·acs]·b[t·n+j]) + bias[i·brs+j]    t ascending in [0, k)
//
// — a×b when ars = k, acs = 1 (brs 0: one bias row for all), aᵀ×b when
// ars = 1, acs = m. Where useAsm holds, an output at least 8 wide sends
// the leading n&^3 columns of each row to nzRowAVX, the row of a whole (made
// contiguous first when acs ≠ 1) against dense offsets; a narrower output
// goes whole to nzNarrowAVX. The Go loops take the 1–3 column tail of a wide
// output, empty products and everything off amd64 or without AVX2.
func exactProducts(dst, a, b, bias []float64, m, k, n, ars, acs, brs int, ws *NZScratch) {
	j0 := 0
	if useAsm && m > 0 && k > 0 && n > 0 {
		if n < 8 {
			nzNarrowAVX(&dst[0], &a[0], &b[0], &bias[0], m, k, n, ars, acs, brs)
			return
		}
		j0 = n &^ 3
		off := ws.denseOffsets(k, n)
		for i := 0; i < m; i++ {
			var val []float64
			if acs == 1 {
				val = a[i*ars : i*ars+k]
			} else {
				val = ws.stridedRow(a, i, k, ars, acs)
			}
			nzRowAVX(&dst[i*n], &b[0], &bias[i*brs], &val[0], &off[0], k, j0)
		}
	}
	if j0 < n {
		exactProductsGo(dst, a, b, bias, m, k, n, ars, acs, brs, j0)
	}
}

// exactProductsGo is exactProducts' Go lane over output columns [j0, n).
// Each product is written float64(x*y): the explicit conversion rounds it,
// which keeps compilers that fuse x*y + z (arm64) from turning the
// definition into fused multiply-adds.
func exactProductsGo(dst, a, b, bias []float64, m, k, n, ars, acs, brs, j0 int) {
	for i := 0; i < m; i++ {
		orow := dst[i*n : (i+1)*n]
		brow := bias[i*brs : i*brs+n]
		j := j0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float64
			o := i * ars
			for t := 0; t < k; t++ {
				av := a[o]
				bv := b[t*n+j:][:4]
				s0 += float64(av * bv[0])
				s1 += float64(av * bv[1])
				s2 += float64(av * bv[2])
				s3 += float64(av * bv[3])
				o += acs
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0+brow[j], s1+brow[j+1], s2+brow[j+2], s3+brow[j+3]
		}
		for ; j < n; j++ {
			var s float64
			o := i * ars
			for t := 0; t < k; t++ {
				s += float64(a[o] * b[t*n+j])
				o += acs
			}
			orow[j] = s + brow[j]
		}
	}
}

// MulABt computes dst = a × bᵀ without materialising the transpose in the
// caller: dst[i,j] = Σ_k a[i,k]·b[j,k], accumulated in ascending k from a
// zeroed accumulator with no term skipped. dst must be a.Rows×b.Rows and
// must not alias a or b; ws owns the k-major copy of b the AVX lane reads.
//
// It has the exact products' two lanes. The Go loops (mulABt) are the
// definition. Where useAsm holds, the leading b.Rows&^3 columns of every
// output row go to nzRowAVX instead, over bᵀ copied into ws once per call:
// the row of a is passed whole with dense offsets, term k's offset into bᵀ
// being k·b.Rows, and no bias. The Go loops keep the 1–3 column tail.
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
	bt := ws.bt[:n*k]
	for j := 0; j < n; j++ {
		for t, v := range b.Data[j*k : (j+1)*k] {
			bt[t*n+j] = v
		}
	}
	return bt, ws.denseOffsets(k, n)
}

// mulABt is MulABt's Go lane over output columns [j0, b.Rows). Its inner
// product runs four b-rows per pass; each output element still accumulates
// Σ_k a[i,k]·b[j,k] in ascending k, independently per j, so results match
// the one-row-at-a-time loop bit for bit. Products are written float64(x*y)
// for the reason exactProductsGo gives.
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
				s00 += float64(av0 * bv0)
				s01 += float64(av0 * bv1)
				s02 += float64(av0 * bv2)
				s03 += float64(av0 * bv3)
				s10 += float64(av1 * bv0)
				s11 += float64(av1 * bv1)
				s12 += float64(av1 * bv2)
				s13 += float64(av1 * bv3)
			}
			orow0[j], orow0[j+1], orow0[j+2], orow0[j+3] = s00, s01, s02, s03
			orow1[j], orow1[j+1], orow1[j+2], orow1[j+3] = s10, s11, s12, s13
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*bc : (j+1)*bc]
			var s0, s1 float64
			for k, av0 := range arow0 {
				bv := brow[k]
				s0 += float64(av0 * bv)
				s1 += float64(arow1[k] * bv)
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
				s0 += float64(av * b0[k])
				s1 += float64(av * b1[k])
				s2 += float64(av * b2[k])
				s3 += float64(av * b3[k])
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*bc : (j+1)*bc]
			var s float64
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			orow[j] = s
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
			sum[j] += float64(d * d)
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

// checkDataLen panics when m.Data is shorter than m's shape says.
// MulBiasIntoNZ and MulAtBAddNZ establish it once per call for every operand
// whose address goes to nzRowAVX or nzNarrowAVX, which have no bounds checks
// of their own.
func checkDataLen(op string, m *Matrix) {
	if len(m.Data) < m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: %s operand %dx%d holds %d elements", op, m.Rows, m.Cols, len(m.Data)))
	}
}

// vectorCols returns how many leading columns of an n-wide MulABt output row
// go to nzRowAVX: n rounded down to a multiple of 4 where the kernel runs, else 0.
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
