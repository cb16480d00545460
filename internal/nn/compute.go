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
