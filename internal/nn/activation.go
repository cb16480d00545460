package nn

import (
	"math"
	"math/bits"

	"shoggoth/internal/tensor"
)

// ReLU is the rectified-linear activation y = max(0, x).
type ReLU struct {
	name string
	mask []uint8 // 1 where the input was positive at the last training forward, else 0

	out, dx *tensor.Matrix // reusable scratch (see the Layer contract)
}

// NewReLU creates a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// OutDim implements Layer.
func (r *ReLU) OutDim(in int) int { return in }

// Forward implements Layer. The returned matrix is layer-owned scratch.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	r.out = tensor.Ensure(r.out, x.Rows, x.Cols)
	out := r.out
	xd := x.Data
	od := out.Data[:len(xd)]
	if train {
		if cap(r.mask) < len(xd) {
			r.mask = make([]uint8, len(xd))
		}
		r.mask = r.mask[:len(xd)]
		mask := r.mask
		for i, v := range xd {
			y, keep := rectify(v)
			od[i] = y
			mask[i] = uint8(keep)
		}
		return out
	}
	for i, v := range xd {
		od[i], _ = rectify(v)
	}
	return out
}

// rectify returns max(0, v) and keep = 1 when v > 0, else 0, without
// branching on v: pre-activations are positive about half the time in no
// predictable pattern, so an `if v > 0` mispredicts on every other element.
// v > 0 exactly when its bit pattern lies in [1, bits(+Inf)] — sign clear,
// not zero, not NaN — which is one unsigned compare of pattern-1 against
// bits(+Inf), read off the subtraction's borrow. ANDing the pattern with
// -keep then yields v itself or +0: -0, negatives and NaN all map to +0,
// denormals and +Inf are kept, as the comparison did.
func rectify(v float64) (y float64, keep uint64) {
	b := math.Float64bits(v)
	_, keep = bits.Sub64(b-1, 0x7FF0000000000000, 0)
	return math.Float64frombits(b & -keep), keep
}

// Backward implements Layer: dx is g where the forward kept its input and
// +0 elsewhere. The mask is applied to g's bit pattern (bits & -keep keeps
// every bit or none) rather than through a branch, for the reason rectify
// gives.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if len(r.mask) != len(grad.Data) {
		panic("nn: ReLU.Backward shape mismatch with last Forward")
	}
	r.dx = tensor.Ensure(r.dx, grad.Rows, grad.Cols)
	gd := grad.Data
	mask, dd := r.mask[:len(gd)], r.dx.Data[:len(gd)]
	for i, g := range gd {
		dd[i] = math.Float64frombits(math.Float64bits(g) & -uint64(mask[i]))
	}
	return r.dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{name: r.name} }
