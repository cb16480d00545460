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
	// gradient staging row, and the exact products' buffers (term offsets,
	// the weight gradient's copy of a column of x, MulABt's k-major
	// weights). Staging dB before accumulating keeps the float64 op
	// order identical to the allocating implementation (compute the full
	// column sums, then add element-wise); the weight gradient fuses the
	// same two steps inside MulAtBAddNZ.
	out, dx, dB *tensor.Matrix
	nz          tensor.NZScratch

	// compute selects the kernel tier; fs is the fast tier's conversion
	// scratch (unused on the exact tier).
	compute Compute
	fs      tensor.FastScratch
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
