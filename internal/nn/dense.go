package nn

import (
	"math"
	"math/rand/v2"

	"shoggoth/internal/tensor"
)

// Dense is a fully-connected layer: y = x·W + b.
type Dense struct {
	name    string
	W, B    *Param
	lastX   *tensor.Matrix // cached input for backward
	lrScale float64

	// Scratch, sized on first use and reused across steps (see the Layer
	// contract): the forward output, the backward input gradient, the bias
	// gradient staging row, and the nonzero-compaction buffers of the NZ
	// matmul kernels. Staging dB before accumulating keeps the float64 op
	// order identical to the allocating implementation (compute the full
	// column sums, then add element-wise); the weight gradient fuses the
	// same two steps inside MulAtBAddNZ.
	out, dx, dB *tensor.Matrix
	nz          tensor.NZScratch

	// compute selects the kernel tier; fs is the fast tier's conversion
	// scratch (unused on the exact tier).
	compute Compute
	fs      tensor.FastScratch

	// skipInputGrad makes Backward return nil instead of computing dx.
	// Set only on shadow clones whose input gradient provably has no
	// consumer (fast-tier shard heads over an empty tail with a frozen
	// front); parameter gradients are unaffected.
	skipInputGrad bool
}

// NewDense creates an in×out dense layer with He-style initialisation drawn
// from rng (deterministic given the seed).
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	w := tensor.New(in, out)
	std := math.Sqrt(2.0 / float64(in))
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * std
	}
	b := tensor.New(1, out)
	d := &Dense{name: name, lrScale: 1}
	d.W = &Param{Name: name + ".W", Value: w, Grad: tensor.New(in, out), LRScale: 1}
	d.B = &Param{Name: name + ".b", Value: b, Grad: tensor.New(1, out), LRScale: 1}
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// OutDim implements Layer.
func (d *Dense) OutDim(int) int { return d.W.Value.Cols }

// InDim returns the expected input feature dimension.
func (d *Dense) InDim() int { return d.W.Value.Rows }

// Forward implements Layer. The returned matrix is layer-owned scratch.
//
//shoggoth:hotpath
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		d.lastX = x
	}
	d.out = tensor.Ensure(d.out, x.Rows, d.W.Value.Cols)
	if d.compute.Fast {
		tensor.FastMulBiasInto(d.out, x, d.W.Value, d.B.Value, d.compute.Lane, &d.fs)
	} else {
		tensor.MulBiasIntoNZ(d.out, x, d.W.Value, d.B.Value, &d.nz)
	}
	return d.out
}

// Backward implements Layer. dW = xᵀg, db = Σg, dx = g·Wᵀ.
//
//shoggoth:hotpath
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward(train=true)")
	}
	d.dx = tensor.Ensure(d.dx, grad.Rows, d.W.Value.Rows)
	if d.compute.Fast {
		tensor.FastMulAtBAdd(d.W.Grad, d.lastX, grad, d.compute.Lane, &d.fs)
	} else {
		tensor.MulAtBAddNZ(d.W.Grad, d.lastX, grad, &d.nz)
	}
	d.dB = tensor.Ensure(d.dB, 1, grad.Cols)
	tensor.SumRowsInto(d.dB, grad)
	tensor.AddInPlace(d.B.Grad, d.dB)
	if d.skipInputGrad {
		return nil
	}
	if d.compute.Fast {
		tensor.FastMulABt(d.dx, grad, d.W.Value, d.compute.Lane, &d.fs)
	} else {
		tensor.MulABt(d.dx, grad, d.W.Value, &d.nz)
	}
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// SetLRScale implements LRScaler.
func (d *Dense) SetLRScale(s float64) {
	d.lrScale = s
	d.W.LRScale = s
	d.B.LRScale = s
}

// MACs returns multiply-accumulate operations per input row.
func (d *Dense) MACs() int64 { return int64(d.W.Value.Rows) * int64(d.W.Value.Cols) }

// Clone implements Layer. Scratch is not copied: the clone sizes its own on
// first use, so clones share no state with the receiver. The compute tier is
// deliberately not copied either — a clone defaults to the exact tier until
// its owner calls SetCompute (pretraining and golden paths stay exact even
// when the source ran fast).
func (d *Dense) Clone() Layer {
	c := &Dense{name: d.name, lrScale: d.lrScale}
	c.W = &Param{Name: d.W.Name, Value: d.W.Value.Clone(), Grad: tensor.New(d.W.Grad.Rows, d.W.Grad.Cols), LRScale: d.W.LRScale}
	c.B = &Param{Name: d.B.Name, Value: d.B.Value.Clone(), Grad: tensor.New(d.B.Grad.Rows, d.B.Grad.Cols), LRScale: d.B.LRScale}
	return c
}

// SetCompute implements ComputeSetter.
func (d *Dense) SetCompute(c Compute) { d.compute = c }

// SetSkipInputGrad elides the dx computation in Backward (which then
// returns nil). Only valid when the caller can prove the input gradient has
// no consumer; parameter gradients are computed either way.
func (d *Dense) SetSkipInputGrad(skip bool) { d.skipInputGrad = skip }

// ShadowClone returns a Dense sharing the receiver's parameter values
// (Param.Value is the same matrix) but owning private gradient accumulators
// and scratch, so a minibatch shard can forward/backward concurrently with
// its siblings and its gradients can be tree-reduced into the primary's.
// Shadow params must never be handed to an optimizer: stepping them would
// double-apply updates to the shared values.
func (d *Dense) ShadowClone() *Dense {
	c := &Dense{name: d.name, lrScale: d.lrScale, compute: d.compute}
	c.W = &Param{Name: d.W.Name, Value: d.W.Value, Grad: tensor.New(d.W.Grad.Rows, d.W.Grad.Cols), LRScale: d.W.LRScale}
	c.B = &Param{Name: d.B.Name, Value: d.B.Value, Grad: tensor.New(d.B.Grad.Rows, d.B.Grad.Cols), LRScale: d.B.LRScale}
	return c
}
