package nn

import (
	"fmt"

	"shoggoth/internal/tensor"
)

// Sequential chains layers. It supports partial execution (ForwardRange) and
// partial back-propagation (BackwardRange) so a replay layer can split the
// network into a frozen front and a trainable tail, as in the paper's Fig. 3.
type Sequential struct {
	LayersList []Layer
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{LayersList: layers}
}

// Len returns the number of layers.
func (s *Sequential) Len() int { return len(s.LayersList) }

// Layer returns the i-th layer.
func (s *Sequential) Layer(i int) Layer { return s.LayersList[i] }

// Forward runs the whole network.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	return s.ForwardRange(0, len(s.LayersList), x, train)
}

// ForwardRange runs layers [lo, hi).
//
//shoggoth:hotpath
func (s *Sequential) ForwardRange(lo, hi int, x *tensor.Matrix, train bool) *tensor.Matrix {
	s.checkRange(lo, hi)
	for i := lo; i < hi; i++ {
		x = s.LayersList[i].Forward(x, train)
	}
	return x
}

// Backward back-propagates through the whole network and returns dL/dInput.
func (s *Sequential) Backward(grad *tensor.Matrix) *tensor.Matrix {
	return s.BackwardRange(0, len(s.LayersList), grad)
}

// BackwardRange back-propagates through layers [lo, hi) in reverse order and
// returns the gradient at the input of layer lo. Use lo > 0 to terminate the
// backward pass at the replay layer (frozen front).
//
//shoggoth:hotpath
func (s *Sequential) BackwardRange(lo, hi int, grad *tensor.Matrix) *tensor.Matrix {
	s.checkRange(lo, hi)
	for i := hi - 1; i >= lo; i-- {
		grad = s.LayersList[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters in layer order.
func (s *Sequential) Params() []*Param { return s.ParamsRange(0, len(s.LayersList)) }

// ParamsRange returns the parameters of layers [lo, hi).
func (s *Sequential) ParamsRange(lo, hi int) []*Param {
	s.checkRange(lo, hi)
	var out []*Param
	for i := lo; i < hi; i++ {
		out = append(out, s.LayersList[i].Params()...)
	}
	return out
}

// ZeroGrads clears all gradient accumulators.
func (s *Sequential) ZeroGrads() { zeroGrads(s.Params()) }

// SetLRScaleRange sets the learning-rate scale of layers [lo, hi) that
// support it. Scale 0 freezes the weights (the paper's front-layer freeze).
func (s *Sequential) SetLRScaleRange(lo, hi int, scale float64) {
	s.checkRange(lo, hi)
	for i := lo; i < hi; i++ {
		if l, ok := s.LayersList[i].(LRScaler); ok {
			l.SetLRScale(scale)
		}
	}
}

// SetStatsFrozenRange freezes or unfreezes the running statistics of
// normalisation layers in [lo, hi).
func (s *Sequential) SetStatsFrozenRange(lo, hi int, frozen bool) {
	s.checkRange(lo, hi)
	for i := lo; i < hi; i++ {
		switch l := s.LayersList[i].(type) {
		case *BatchNorm:
			l.FreezeStats = frozen
		case *BatchRenorm:
			l.FreezeStats = frozen
		}
	}
}

// OutDim returns the feature dimension after running an input of dimension
// in through layers [0, hi).
func (s *Sequential) OutDim(in, hi int) int {
	for i := 0; i < hi; i++ {
		in = s.LayersList[i].OutDim(in)
	}
	return in
}

// Clone deep-copies the network (weights and normalisation statistics, not
// backward caches).
func (s *Sequential) Clone() *Sequential {
	c := &Sequential{LayersList: make([]Layer, len(s.LayersList))}
	for i, l := range s.LayersList {
		c.LayersList[i] = l.Clone()
	}
	return c
}

func (s *Sequential) checkRange(lo, hi int) {
	if lo < 0 || hi > len(s.LayersList) || lo > hi {
		panic(fmt.Sprintf("nn: invalid layer range [%d,%d) of %d", lo, hi, len(s.LayersList)))
	}
}

// CopyWeightsFrom copies all weights and statistics from src (identical
// architecture) into s.
func (s *Sequential) CopyWeightsFrom(src *Sequential) {
	dst := s.Params()
	from := src.Params()
	if len(dst) != len(from) {
		panic("nn: copy weights: parameter count mismatch")
	}
	for i, p := range dst {
		copy(p.Value.Data, from[i].Value.Data)
	}
	for i, l := range s.LayersList {
		if bn := asNorm(l); bn != nil {
			if sb := asNorm(src.LayersList[i]); sb != nil {
				copy(bn.RunMean.Data, sb.RunMean.Data)
				copy(bn.RunVar.Data, sb.RunVar.Data)
			}
		}
	}
}
