package nn

import "shoggoth/internal/tensor"

// Compute selects the arithmetic tier layer kernels run on. The zero value
// is the exact tier: frozen float64 op order, bit-identical to the golden
// captures. Fast switches dense layers to the blocked fast-math kernels of
// internal/tensor (tolerance-bounded, deterministic — see DESIGN.md §13).
type Compute struct {
	Fast bool
	Lane tensor.Lane // one value, tensor.LaneF64; kept because benchmark/ names it
}

// String renders the tier for logs and ablation tables.
func (c Compute) String() string {
	if !c.Fast {
		return "exact"
	}
	return "fast/" + c.Lane.String()
}

// ComputeSetter is implemented by layers whose kernels honour a compute
// tier. Layers without it (activations, normalisation) are tier-agnostic.
type ComputeSetter interface {
	SetCompute(Compute)
}

// SetCompute switches every tier-aware layer of the network.
func (s *Sequential) SetCompute(c Compute) {
	for _, l := range s.LayersList {
		if cs, ok := l.(ComputeSetter); ok {
			cs.SetCompute(c)
		}
	}
}

// ShadowClone returns a network sharing the receiver's parameter values but
// owning private gradient accumulators and scratch, or ok=false when a layer
// does not support shadow cloning (batch-statistics layers couple rows across
// the whole minibatch, so a row shard cannot reproduce their math). Shadow
// clones are the per-shard workers of parallel minibatch gradient
// accumulation: shards forward/backward concurrently against the shared
// weights, then their gradients reduce deterministically into the primary's.
func (s *Sequential) ShadowClone() (*Sequential, bool) {
	return s.ShadowCloneRange(0, len(s.LayersList))
}

// ShadowCloneRange shadow-clones layers [lo, hi) into a new network.
func (s *Sequential) ShadowCloneRange(lo, hi int) (*Sequential, bool) {
	s.checkRange(lo, hi)
	c := &Sequential{LayersList: make([]Layer, 0, hi-lo)}
	for i := lo; i < hi; i++ {
		switch l := s.LayersList[i].(type) {
		case *Dense:
			c.LayersList = append(c.LayersList, l.ShadowClone())
		case *ReLU:
			c.LayersList = append(c.LayersList, &ReLU{name: l.name})
		default:
			return nil, false
		}
	}
	return c, true
}
