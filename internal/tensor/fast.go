package tensor

import "fmt"

// Fast-math tier. The Fast* ops below are the tolerance-bounded twins of the
// exact kernels in inplace.go: same shapes, same aliasing rules, different
// float contract. The exact tier freezes the float64 op order so results are
// bit-identical to the golden captures; the fast tier instead promises
//
//   - determinism: a given (lane, input) pair produces the same bytes on
//     every run and every amd64 machine, whether the AVX2 microkernels or the
//     portable Go kernels execute (the two are bit-equal by construction:
//     the float64 lane fuses every multiply-add with math.FMA semantics, the
//     float32 lane rounds every multiply and add separately), and
//   - accuracy: results stay within documented ULP bounds of the exact
//     kernels (see fast_test.go; DESIGN.md §13 states the tier contract).
//
// The float64 lane reorders the accumulation into fused multiply-adds; the
// float32 lane additionally computes in single precision, converting inputs
// once per call and accumulating per-element in float32.

// Lane selects the fast tier's arithmetic width.
type Lane uint8

const (
	// LaneF64 keeps float64 storage end to end but fuses multiply-adds
	// (math.FMA op order) inside the blocked kernels.
	LaneF64 Lane = iota
	// LaneF32 computes matrix products in float32 (inputs converted once,
	// per-element float32 accumulation) and widens the result back to the
	// float64 matrices the rest of the stack uses.
	LaneF32
)

// String implements fmt.Stringer ("float64"/"float32", matching the values
// of shoggoth-sim's compute_lane spec key).
func (l Lane) String() string {
	if l == LaneF32 {
		return "float32"
	}
	return "float64"
}

// ParseLane converts a flag value to a Lane.
func ParseLane(s string) (Lane, error) {
	switch s {
	case "", "float64", "f64":
		return LaneF64, nil
	case "float32", "f32":
		return LaneF32, nil
	}
	return LaneF64, fmt.Errorf("tensor: unknown compute lane %q (want float64 or float32)", s)
}

// FastAccelerated reports whether the AVX2+FMA assembly microkernels are
// active (amd64 with AVX2, FMA and OS YMM support). When false the portable
// Go kernels run; results are bit-identical either way, only speed differs.
func FastAccelerated() bool { return useAsm }

// FastScratch owns the reusable conversion and transpose buffers of the fast
// kernels: the float32 shadows of the operands (LaneF32) and the transposed-b
// staging of FastMulABt. One instance per owner (layer); not safe for
// concurrent use. The zero value is ready.
type FastScratch struct {
	f32a, f32b []float32
	f32c       []float32
	bt         []float64 // bᵀ staging for the f64 ABt kernel
}

// ensureF64 returns buf resized to n, reusing its backing array when possible.
func ensureF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ensureF32 returns buf resized to n, reusing its backing array when possible.
func ensureF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// narrow converts src into the float32 buffer dst (grown as needed).
func narrow(dst []float32, src []float64) []float32 {
	dst = ensureF32(dst, len(src))
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// FastMulInto computes dst = a × b on the fast tier. dst must be
// a.Rows×b.Cols and must not alias a or b.
//
//shoggoth:hotpath
func FastMulInto(dst, a, b *Matrix, lane Lane, ws *FastScratch) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDstShape("fastMulInto", dst, a.Rows, b.Cols)
	checkNoAlias("fastMulInto", dst, a, b)
	if lane == LaneF32 {
		ws.f32a = narrow(ws.f32a, a.Data)
		ws.f32b = narrow(ws.f32b, b.Data)
		ws.f32c = ensureF32(ws.f32c, len(dst.Data))
		zeroF32(ws.f32c)
		gemmAccF32(ws.f32c, ws.f32a, ws.f32b, a.Rows, a.Cols, b.Cols, a.Cols, 1)
		widenInto(dst.Data, ws.f32c)
		return
	}
	dst.Zero()
	gemmAccF64(dst.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols, a.Cols, 1)
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
	if lane == LaneF32 {
		ws.f32a = narrow(ws.f32a, a.Data)
		ws.f32b = narrow(ws.f32b, b.Data)
		ws.f32c = ensureF32(ws.f32c, len(dst.Data))
		// Prefill every output row with the bias so the gemm accumulates on
		// top of it, mirroring the exact kernel's fused bias add.
		n := b.Cols
		for i := 0; i < a.Rows; i++ {
			row := ws.f32c[i*n : (i+1)*n]
			for j, v := range bias.Data {
				row[j] = float32(v)
			}
		}
		gemmAccF32(ws.f32c, ws.f32a, ws.f32b, a.Rows, a.Cols, b.Cols, a.Cols, 1)
		widenInto(dst.Data, ws.f32c)
		return
	}
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
	if lane == LaneF32 {
		ws.f32a = narrow(ws.f32a, a.Data)
		// Transpose b into the k×n float32 staging so the gemm streams
		// contiguous rows.
		ws.f32b = ensureF32(ws.f32b, k*n)
		for j := 0; j < n; j++ {
			row := b.Row(j)
			for t := 0; t < k; t++ {
				ws.f32b[t*n+j] = float32(row[t])
			}
		}
		ws.f32c = ensureF32(ws.f32c, len(dst.Data))
		zeroF32(ws.f32c)
		gemmAccF32(ws.f32c, ws.f32a, ws.f32b, a.Rows, k, n, k, 1)
		widenInto(dst.Data, ws.f32c)
		return
	}
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
	if lane == LaneF32 {
		ws.f32a = narrow(ws.f32a, a.Data)
		ws.f32b = narrow(ws.f32b, b.Data)
		ws.f32c = ensureF32(ws.f32c, len(dst.Data))
		zeroF32(ws.f32c)
		// aᵀ is a with swapped strides: row stride 1, column stride a.Cols.
		gemmAccF32(ws.f32c, ws.f32a, ws.f32b, a.Cols, a.Rows, b.Cols, 1, a.Cols)
		addWidenInto(dst.Data, ws.f32c)
		return
	}
	gemmAccF64(dst.Data, a.Data, b.Data, a.Cols, a.Rows, b.Cols, 1, a.Cols)
}

// zeroF32 clears a float32 buffer.
func zeroF32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// widenInto overwrites dst with the widened float32 values.
func widenInto(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// addWidenInto accumulates the widened float32 values into dst.
func addWidenInto(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] += float64(v)
	}
}
