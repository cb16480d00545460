package hotalloc

import "hotalloc/tensor"

// FastWorkspace pins the fast tier's state: the staging copy of the input
// and the kernel's scratch and output.
type FastWorkspace struct {
	fs    tensor.FastScratch
	stage []float64
	out   *tensor.Matrix
}

// StepFast drives one fast-tier kernel call: staging through pinned scratch
// is legal, a fresh copy of the rows or of the staging buffer is not.
//
//shoggoth:hotpath
func StepFast(w *FastWorkspace, in, weights, bias *tensor.Matrix) {
	stage(w, in)
	stageFresh(w, in)
	tensor.Ensure(w.out, in.Rows, weights.Cols)
	tensor.FastMulBiasInto(w.out, in, weights, bias, tensor.LaneF64, &w.fs)
	rows := tensor.SelectRows(in, []int{0}) // want `tensor\.SelectRows builds a fresh matrix`
	_ = rows
}

// stage is grow-once staging: the cap guard keeps steady state
// allocation-free.
func stage(w *FastWorkspace, in *tensor.Matrix) {
	if cap(w.stage) < len(in.Data) {
		w.stage = make([]float64, len(in.Data))
	}
	w.stage = w.stage[:len(in.Data)]
	copy(w.stage, in.Data)
}

// stageFresh is the anti-pattern: a fresh staging copy every call, hot by
// reachability from StepFast.
func stageFresh(w *FastWorkspace, in *tensor.Matrix) {
	w.stage = make([]float64, len(in.Data)) // want `unguarded make runs every call`
	copy(w.stage, in.Data)
}
