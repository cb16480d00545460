// Package hotalloc is the hotalloc analyzer's golden fixture: zero
// allocations in functions reachable from a //shoggoth:hotpath entry point.
package hotalloc

import "hotalloc/tensor"

// Workspace pins the buffers the hot path reuses across calls.
type Workspace struct {
	weights *tensor.Matrix
	bias    *tensor.Matrix
	out     *tensor.Matrix
	nz      tensor.NZScratch
	history []float64
	scratch []float64
}

// Step is the per-frame driver.
//
//shoggoth:hotpath
func Step(w *Workspace, in *tensor.Matrix) float64 {
	mean := tensor.MeanRows(in) // want `tensor\.MeanRows builds a fresh matrix`
	tmp := make([]float64, 8)   // want `unguarded make runs every call`
	_ = tmp
	ensureScratch(w, 16)
	record(w, mean.At(0, 0))
	tensor.Ensure(w.out, in.Rows, w.weights.Cols)
	tensor.MulBiasIntoNZ(w.out, in, w.weights, w.bias, &w.nz)
	return w.out.At(0, 0)
}

// record is hot by reachability from Step.
func record(w *Workspace, v float64) {
	w.history = append(w.history, v) // want `unguarded append runs every call`
}

// ensureScratch is the grow-once idiom: the guard means steady state never
// re-enters the allocation.
func ensureScratch(w *Workspace, n int) {
	if cap(w.scratch) < n {
		w.scratch = make([]float64, n)
	}
	if w.out == nil {
		w.out = &tensor.Matrix{}
	}
	w.scratch = w.scratch[:n]
}

// Layer dispatch: hotness must flow through interface calls to the
// package-local implementations (the nn.Network.ForwardRange shape).
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
}

// Dense allocates in Forward — reached only via the interface from Run.
type Dense struct{ keep []int }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	return tensor.SelectRows(x, d.keep) // want `tensor\.SelectRows builds a fresh matrix`
}

// Run drives the layers.
//
//shoggoth:hotpath
func Run(ls []Layer, x *tensor.Matrix) *tensor.Matrix {
	for _, l := range ls {
		x = l.Forward(x)
	}
	return x
}

// BuildNetwork runs once at setup: allocation off the hot path is fine.
func BuildNetwork() *Workspace {
	return &Workspace{
		weights: tensor.New(4, 4),
		history: make([]float64, 0, 64),
	}
}

// Snapshot is hot but its copy is deliberate and justified.
//
//shoggoth:hotpath
func Snapshot(w *Workspace) []float64 {
	//shoggoth:allow hotalloc -- fixture: snapshots are rare and must not alias the live buffer
	return append([]float64(nil), w.history...)
}
