package nn

import (
	"math"

	"shoggoth/internal/tensor"
)

// normCache holds the per-batch values needed for the backward pass of the
// normalisation layers. The slices and matrices point into layer-owned
// scratch that is overwritten by the next training forward.
type normCache struct {
	x        *tensor.Matrix // input
	xhat     *tensor.Matrix // normalised (pre-affine, pre-d) values r·(x−μ)/σ
	mean     *tensor.Matrix // batch mean (1×C)
	invStd   []float64      // 1/sqrt(var+eps) per feature
	renormR  []float64      // BRN r correction used (1 for plain BN)
	renormD  []float64      // BRN d correction used (nil for plain BN)
	batchLen int
}

// BatchNorm is standard batch normalisation with running statistics
// (training uses batch statistics; evaluation uses running statistics).
type BatchNorm struct {
	name     string
	Gamma    *Param
	Beta     *Param
	RunMean  *tensor.Matrix
	RunVar   *tensor.Matrix
	Momentum float64
	Eps      float64

	// FreezeStats disables running-statistic updates (the paper's
	// "completely frozen" front-layer ablation freezes BN moments too).
	FreezeStats bool

	cache normCache

	// Scratch, sized on first use (see the Layer contract). The train-mode
	// and eval-mode buffers are separate so an eval pass (replay-activation
	// capture, inference) never clobbers a pending backward cache.
	mean, variance *tensor.Matrix // batch statistics (1×C)
	xhat, out      *tensor.Matrix // train-mode normalised values and output
	invStd, ones   []float64
	evalOut        *tensor.Matrix // eval-mode output
	evalInv        []float64
	dx             *tensor.Matrix // backward output
	sumG, sumGX    []float64
	gammaR         []float64 // backward's γ·r per feature
}

// NewBatchNorm creates a BatchNorm layer over dim features.
func NewBatchNorm(name string, dim int) *BatchNorm {
	bn := &BatchNorm{
		name:     name,
		RunMean:  tensor.New(1, dim),
		RunVar:   tensor.New(1, dim),
		Momentum: 0.02, // slow enough that replay-activation aging stays mild
		Eps:      1e-5,
	}
	bn.RunVar.Fill(1)
	g := tensor.New(1, dim)
	g.Fill(1)
	bn.Gamma = &Param{Name: name + ".gamma", Value: g, Grad: tensor.New(1, dim), LRScale: 1}
	bn.Beta = &Param{Name: name + ".beta", Value: tensor.New(1, dim), Grad: tensor.New(1, dim), LRScale: 1}
	return bn
}

// Name implements Layer.
func (bn *BatchNorm) Name() string { return bn.name }

// OutDim implements Layer.
func (bn *BatchNorm) OutDim(in int) int { return in }

// Params implements Layer.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// SetLRScale implements LRScaler.
func (bn *BatchNorm) SetLRScale(s float64) {
	bn.Gamma.LRScale = s
	bn.Beta.LRScale = s
}

// ensureFloats returns s resized to n elements, reusing its backing array
// when the capacity suffices. Contents are unspecified.
func ensureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Forward implements Layer. The returned matrix is layer-owned scratch.
func (bn *BatchNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || x.Rows < 2 {
		return bn.evalForward(x)
	}
	bn.mean = tensor.Ensure(bn.mean, 1, x.Cols)
	tensor.MeanRowsInto(bn.mean, x)
	bn.variance = tensor.Ensure(bn.variance, 1, x.Cols)
	tensor.VarRowsInto(bn.variance, x, bn.mean)
	if !bn.FreezeStats {
		bn.updateRunning(bn.mean, bn.variance)
	}
	return bn.normalize(x, bn.mean, bn.variance, nil)
}

// BatchRenorm is Batch Renormalization (Ioffe, NeurIPS 2017): training-time
// normalisation uses batch statistics corrected towards the running
// statistics via the clipped factors r and d, which reduces the train/eval
// mismatch for small mini-batches. r and d are treated as constants in the
// backward pass (stop-gradient), per the original paper.
type BatchRenorm struct {
	BatchNorm
	RMax float64 // clip for r = σ_batch/σ_run
	DMax float64 // clip for d = (μ_batch-μ_run)/σ_run

	rBuf, dBuf []float64 // reusable r/d correction scratch
}

// NewBatchRenorm creates a BatchRenorm layer over dim features.
func NewBatchRenorm(name string, dim int) *BatchRenorm {
	brn := &BatchRenorm{BatchNorm: *NewBatchNorm(name, dim)}
	brn.RMax = 3
	brn.DMax = 5
	return brn
}

// Forward implements Layer. The returned matrix is layer-owned scratch.
func (brn *BatchRenorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || x.Rows < 2 {
		return brn.evalForward(x)
	}
	brn.mean = tensor.Ensure(brn.mean, 1, x.Cols)
	tensor.MeanRowsInto(brn.mean, x)
	brn.variance = tensor.Ensure(brn.variance, 1, x.Cols)
	tensor.VarRowsInto(brn.variance, x, brn.mean)
	mean, variance := brn.mean, brn.variance

	dim := x.Cols
	brn.rBuf = ensureFloats(brn.rBuf, dim)
	brn.dBuf = ensureFloats(brn.dBuf, dim)
	r, d := brn.rBuf, brn.dBuf
	for j := 0; j < dim; j++ {
		sigmaB := math.Sqrt(variance.Data[j] + brn.Eps)
		sigmaR := math.Sqrt(brn.RunVar.Data[j] + brn.Eps)
		r[j] = tensor.Clamp(sigmaB/sigmaR, 1/brn.RMax, brn.RMax)
		d[j] = tensor.Clamp((mean.Data[j]-brn.RunMean.Data[j])/sigmaR, -brn.DMax, brn.DMax)
	}
	if !brn.FreezeStats {
		brn.updateRunning(mean, variance)
	}
	return brn.normalizeRenorm(x, mean, variance, r, d)
}

// Clone implements Layer.
func (brn *BatchRenorm) Clone() Layer {
	c := &BatchRenorm{BatchNorm: *brn.BatchNorm.cloneInto(), RMax: brn.RMax, DMax: brn.DMax}
	return c
}

// Clone implements Layer.
func (bn *BatchNorm) Clone() Layer { return bn.cloneInto() }

// cloneInto copies the weights and statistics; scratch and caches are left
// empty so the clone shares no state with the receiver.
func (bn *BatchNorm) cloneInto() *BatchNorm {
	c := &BatchNorm{
		name:        bn.name,
		RunMean:     bn.RunMean.Clone(),
		RunVar:      bn.RunVar.Clone(),
		Momentum:    bn.Momentum,
		Eps:         bn.Eps,
		FreezeStats: bn.FreezeStats,
	}
	c.Gamma = &Param{Name: bn.Gamma.Name, Value: bn.Gamma.Value.Clone(), Grad: tensor.New(1, bn.Gamma.Value.Cols), LRScale: bn.Gamma.LRScale}
	c.Beta = &Param{Name: bn.Beta.Name, Value: bn.Beta.Value.Clone(), Grad: tensor.New(1, bn.Beta.Value.Cols), LRScale: bn.Beta.LRScale}
	return c
}

func (bn *BatchNorm) updateRunning(mean, variance *tensor.Matrix) {
	m := bn.Momentum
	for j := range bn.RunMean.Data {
		bn.RunMean.Data[j] += m * (mean.Data[j] - bn.RunMean.Data[j])
		bn.RunVar.Data[j] += m * (variance.Data[j] - bn.RunVar.Data[j])
	}
}

// The loops over rows below read each per-feature vector through a local
// slice cut to the row width dim, so that indexing by j < dim needs no
// bounds check and no pointer walk through the layer per element.

func (bn *BatchNorm) evalForward(x *tensor.Matrix) *tensor.Matrix {
	bn.evalOut = tensor.Ensure(bn.evalOut, x.Rows, x.Cols)
	out := bn.evalOut
	dim := x.Cols
	bn.evalInv = ensureFloats(bn.evalInv, dim)
	inv := bn.evalInv
	runMean, runVar := bn.RunMean.Data[:dim], bn.RunVar.Data[:dim]
	gamma, beta := bn.Gamma.Value.Data[:dim], bn.Beta.Value.Data[:dim]
	for j := 0; j < dim; j++ {
		inv[j] = 1 / math.Sqrt(runVar[j]+bn.Eps)
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*dim:][:dim]
		orow := out.Data[i*dim:][:dim]
		for j := 0; j < dim; j++ {
			xhat := (row[j] - runMean[j]) * inv[j]
			orow[j] = gamma[j]*xhat + beta[j]
		}
	}
	return out
}

// normalize performs the training-mode BN transform and fills the backward
// cache. If r is non-nil it holds the BRN r corrections.
func (bn *BatchNorm) normalize(x, mean, variance *tensor.Matrix, r []float64) *tensor.Matrix {
	dim := x.Cols
	bn.invStd = ensureFloats(bn.invStd, dim)
	invStd := bn.invStd
	for j := 0; j < dim; j++ {
		invStd[j] = 1 / math.Sqrt(variance.Data[j]+bn.Eps)
	}
	if r == nil {
		bn.ones = ensureFloats(bn.ones, dim)
		r = bn.ones
		for j := range r {
			r[j] = 1
		}
	}
	bn.xhat = tensor.Ensure(bn.xhat, x.Rows, x.Cols)
	bn.out = tensor.Ensure(bn.out, x.Rows, x.Cols)
	xhat, out := bn.xhat, bn.out
	mu, rs := mean.Data[:dim], r[:dim]
	gamma, beta := bn.Gamma.Value.Data[:dim], bn.Beta.Value.Data[:dim]
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*dim:][:dim]
		hrow := xhat.Data[i*dim:][:dim]
		orow := out.Data[i*dim:][:dim]
		for j := 0; j < dim; j++ {
			h := (row[j] - mu[j]) * invStd[j] * rs[j]
			hrow[j] = h
			orow[j] = gamma[j]*h + beta[j]
		}
	}
	bn.cache = normCache{x: x, xhat: xhat, mean: mean, invStd: invStd, renormR: r, batchLen: x.Rows}
	return out
}

func (brn *BatchRenorm) normalizeRenorm(x, mean, variance *tensor.Matrix, r, d []float64) *tensor.Matrix {
	out := brn.normalize(x, mean, variance, r)
	// Add the γ·d shift on top. d is a stop-gradient constant: it shifts the
	// forward value and contributes Σg·d to dγ, but carries no gradient to x.
	brn.cache.renormD = d
	dim := out.Cols
	gamma, d := brn.Gamma.Value.Data[:dim], d[:dim]
	for i := 0; i < out.Rows; i++ {
		orow := out.Data[i*dim:][:dim]
		for j := 0; j < dim; j++ {
			orow[j] += gamma[j] * d[j]
		}
	}
	return out
}

// Backward implements Layer for both BN (r=1, d=0) and BRN (r, d cached).
//
// With z = (x−μ)/σ, x̂ = r·z + d and y = γx̂ + β (r, d stop-gradients):
//
//	dγ = Σ g·(r·z + d),  dβ = Σ g
//	dx = (γ·r/σ)·[ g − mean(g) − z·mean(g·z) ]
//
// Per element that is γ·r·((g − Σg/n) − z·(Σg·x̂/r)/n)·(1/σ) with z = x̂/r,
// evaluated left to right; γ·r, Σg/n and Σg·x̂/r depend on the feature
// only, so they are computed once per feature, with the same operations.
func (bn *BatchNorm) Backward(grad *tensor.Matrix) *tensor.Matrix {
	c := &bn.cache
	if c.x == nil {
		panic("nn: BatchNorm.Backward before Forward(train=true)")
	}
	n := float64(c.batchLen)
	dim := grad.Cols
	bn.sumG = ensureFloats(bn.sumG, dim)
	bn.sumGX = ensureFloats(bn.sumGX, dim)
	sumG, sumGX := bn.sumG, bn.sumGX
	for j := 0; j < dim; j++ {
		sumG[j], sumGX[j] = 0, 0
	}
	for i := 0; i < grad.Rows; i++ {
		grow := grad.Data[i*dim:][:dim]
		hrow := c.xhat.Data[i*dim:][:dim]
		for j := 0; j < dim; j++ {
			g := grow[j]
			sumG[j] += g
			sumGX[j] += g * hrow[j]
		}
	}
	for j := 0; j < dim; j++ {
		dgamma := sumGX[j]
		if c.renormD != nil {
			dgamma += sumG[j] * c.renormD[j] // x̂_full = x̂ + d, so dγ gains Σg·d
		}
		bn.Gamma.Grad.Data[j] += dgamma
		bn.Beta.Grad.Data[j] += sumG[j]
	}
	// From here on sumG holds Σg/n and sumGX holds Σg·x̂/r.
	bn.gammaR = ensureFloats(bn.gammaR, dim)
	gammaR := bn.gammaR
	r, invStd, gamma := c.renormR[:dim], c.invStd[:dim], bn.Gamma.Value.Data[:dim]
	for j := 0; j < dim; j++ {
		gammaR[j] = gamma[j] * r[j]
		sumG[j] /= n
		sumGX[j] /= r[j]
	}
	bn.dx = tensor.Ensure(bn.dx, grad.Rows, grad.Cols)
	out := bn.dx
	for i := 0; i < grad.Rows; i++ {
		grow := grad.Data[i*dim:][:dim]
		hrow := c.xhat.Data[i*dim:][:dim]
		orow := out.Data[i*dim:][:dim]
		for j := 0; j < dim; j++ {
			// z = (x-μ)/σ = x̂/r; standard BN input gradient in terms of z,
			// scaled by r because x̂ = r·z.
			z := hrow[j] / r[j]
			dz := gammaR[j] * (grow[j] - sumG[j] - z*sumGX[j]/n)
			orow[j] = dz * invStd[j]
		}
	}
	return out
}

// asNorm returns the normalisation state of l, or nil for any other layer.
func asNorm(l Layer) *BatchNorm {
	switch v := l.(type) {
	case *BatchNorm:
		return v
	case *BatchRenorm:
		return &v.BatchNorm
	default:
		return nil
	}
}
