package nn

import "shoggoth/internal/tensor"

// SGD is stochastic gradient descent with classical momentum, optional L2
// weight decay and per-parameter learning-rate scaling (Param.LRScale; a
// scale of 0 freezes the parameter, implementing the paper's front-layer
// learning slowdown/freeze).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Matrix
}

// NewSGD creates an optimizer with the given base learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param]*tensor.Matrix)}
}

// Step applies one update to every parameter using its accumulated gradient,
// then clears the gradients. Frozen parameters (LRScale 0) are skipped
// without touching their gradient: the training loops stop back-propagation
// at frozen layers, so a frozen parameter's gradient accumulator is always
// zero already — re-clearing ~40KB of zeros per step was pure overhead. A
// caller that accumulates gradients into a frozen parameter must clear them
// itself before unfreezing.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.LRScale == 0 {
			continue
		}
		v, ok := o.velocity[p]
		if !ok {
			v = tensor.New(p.Value.Rows, p.Value.Cols)
			o.velocity[p] = v
		}
		lr := o.LR * p.LRScale
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			if o.WeightDecay != 0 {
				g += o.WeightDecay * p.Value.Data[i]
			}
			v.Data[i] = o.Momentum*v.Data[i] - lr*g
			p.Value.Data[i] += v.Data[i]
		}
		p.Grad.Zero()
	}
}
