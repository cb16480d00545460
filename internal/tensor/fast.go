package tensor

import "fmt"

// Fast-math tier. The Fast* ops below are the tolerance-bounded twins of the
// exact kernels in inplace.go: same shapes, same aliasing rules, different
// float contract. The exact tier freezes the float64 op order so results are
// bit-identical to the golden captures; the fast tier instead reorders the
// accumulation into fused multiply-adds and promises
//
//   - determinism: a given input produces the same bytes on every run and
//     every amd64 machine, whether the AVX2 microkernel or the portable Go
//     kernel executes (the two are bit-equal by construction: both fuse every
//     multiply-add with math.FMA semantics), and
//   - accuracy: results stay within documented ULP bounds of the exact
//     kernels (see fast_test.go; DESIGN.md §13 states the tier contract).

// Lane names the fast tier's arithmetic width. It has one value; the type
// and the Fast* kernels' lane parameter remain because benchmark/ names them.
type Lane uint8

// LaneF64 keeps float64 storage end to end but fuses multiply-adds
// (math.FMA op order) inside the blocked kernels.
const LaneF64 Lane = 0

// String implements fmt.Stringer.
func (Lane) String() string { return "float64" }

// FastAccelerated reports whether the AVX2+FMA assembly microkernels are
// active (amd64 with AVX2, FMA and OS YMM support). When false the portable
// Go kernels run; results are bit-identical either way, only speed differs.
func FastAccelerated() bool { return useAsm }

// FastScratch owns the reusable transposed-b staging of FastMulABt. One
// instance per owner (layer); not safe for concurrent use. The zero value is
// ready.
type FastScratch struct {
	bt []float64 // bᵀ staging for the ABt kernel
}

// ensureF64 returns buf resized to n, reusing its backing array when possible.
func ensureF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// FastMulBiasInto computes dst = a × b with the 1×b.Cols row vector bias
// added to every row (the Dense forward) on the fast tier. dst must not
// alias a, b or bias.
//
//shoggoth:hotpath
func FastMulBiasInto(dst, a, b, bias *Matrix, lane Lane, ws *FastScratch) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: fastMulBiasInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b.Cols))
	}
	checkDstShape("fastMulBiasInto", dst, a.Rows, b.Cols)
	checkNoAlias("fastMulBiasInto", dst, a, b)
	checkNoAlias("fastMulBiasInto", dst, bias, nil)
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i), bias.Data)
	}
	gemmAccF64(dst.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols, a.Cols, 1)
}

// FastMulABt computes dst = a × bᵀ on the fast tier (the Dense backward's
// input-gradient product). dst must be a.Rows×b.Rows and must not alias a
// or b.
//
//shoggoth:hotpath
func FastMulABt(dst, a, b *Matrix, lane Lane, ws *FastScratch) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("fastMulABt", dst, a.Rows, b.Rows)
	checkNoAlias("fastMulABt", dst, a, b)
	k, n := a.Cols, b.Rows
	ws.bt = ensureF64(ws.bt, k*n)
	for j := 0; j < n; j++ {
		row := b.Row(j)
		for t := 0; t < k; t++ {
			ws.bt[t*n+j] = row[t]
		}
	}
	dst.Zero()
	gemmAccF64(dst.Data, a.Data, ws.bt, a.Rows, k, n, k, 1)
}

// FastMulAtBAdd computes dst += aᵀ × b on the fast tier (the Dense
// backward's weight-gradient accumulation: dst is the gradient, already
// holding prior contributions). dst must be a.Cols×b.Cols and must not alias
// a or b.
//
//shoggoth:hotpath
func FastMulAtBAdd(dst, a, b *Matrix, lane Lane, ws *FastScratch) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("fastMulAtBAdd", dst, a.Cols, b.Cols)
	checkNoAlias("fastMulAtBAdd", dst, a, b)
	gemmAccF64(dst.Data, a.Data, b.Data, a.Cols, a.Rows, b.Cols, 1, a.Cols)
}
