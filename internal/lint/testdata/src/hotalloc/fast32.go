package hotalloc

import "hotalloc/tensor"

// FastWorkspace pins the float32-lane state: the conversion scratch the
// fast kernels widen/narrow through, and the pinned output.
type FastWorkspace struct {
	fs  tensor.FastScratch
	a32 []float32
	out *tensor.Matrix
}

// StepFast drives one float32-lane kernel call: staging through pinned
// conversion scratch is legal, a fresh product or conversion buffer is not.
//
//shoggoth:hotpath
func StepFast(w *FastWorkspace, in, weights *tensor.Matrix) {
	stage32(w, in)
	stage32Fresh(w, in)
	tensor.Ensure(w.out, in.Rows, weights.Cols)
	tensor.FastMulInto(w.out, in, weights, tensor.LaneF32, &w.fs)
	prod := tensor.MatMul(in, weights) // want `tensor\.MatMul builds a fresh matrix`
	_ = prod
}

// stage32 is grow-once conversion staging: the cap guard keeps steady
// state allocation-free.
func stage32(w *FastWorkspace, in *tensor.Matrix) {
	if cap(w.a32) < len(in.Data) {
		w.a32 = make([]float32, len(in.Data))
	}
	w.a32 = w.a32[:len(in.Data)]
	for i, v := range in.Data {
		w.a32[i] = float32(v)
	}
}

// stage32Fresh is the anti-pattern: a fresh float32 shadow every call, hot
// by reachability from StepFast.
func stage32Fresh(w *FastWorkspace, in *tensor.Matrix) {
	w.a32 = make([]float32, len(in.Data)) // want `unguarded make runs every call`
	for i, v := range in.Data {
		w.a32[i] = float32(v)
	}
}
