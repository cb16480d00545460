package nn

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/tensor"
)

// The layers' loops as they were before the exact tier's backward pass was
// made cheaper, kept verbatim as oracles (renamed, and normalizeRenorm
// calling the old normalize): the rewrites must give their bits on random
// and on salted inputs.

// backwardOracle of ReLU: the branching mask.
func (r *ReLU) backwardOracle(grad *tensor.Matrix) *tensor.Matrix {
	if len(r.mask) != len(grad.Data) {
		panic("nn: ReLU.Backward shape mismatch with last Forward")
	}
	r.dx = tensor.Ensure(r.dx, grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		if r.mask[i] != 0 {
			r.dx.Data[i] = g
		} else {
			r.dx.Data[i] = 0
		}
	}
	return r.dx
}

func (bn *BatchNorm) evalForwardOracle(x *tensor.Matrix) *tensor.Matrix {
	bn.evalOut = tensor.Ensure(bn.evalOut, x.Rows, x.Cols)
	out := bn.evalOut
	dim := x.Cols
	bn.evalInv = ensureFloats(bn.evalInv, dim)
	inv := bn.evalInv
	for j := 0; j < dim; j++ {
		inv[j] = 1 / math.Sqrt(bn.RunVar.Data[j]+bn.Eps)
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			xhat := (v - bn.RunMean.Data[j]) * inv[j]
			orow[j] = bn.Gamma.Value.Data[j]*xhat + bn.Beta.Value.Data[j]
		}
	}
	return out
}

func (bn *BatchNorm) normalizeOracle(x, mean, variance *tensor.Matrix, r []float64) *tensor.Matrix {
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
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		hrow := xhat.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			h := (v - mean.Data[j]) * invStd[j] * r[j]
			hrow[j] = h
			orow[j] = bn.Gamma.Value.Data[j]*h + bn.Beta.Value.Data[j]
		}
	}
	bn.cache = normCache{x: x, xhat: xhat, mean: mean, invStd: invStd, renormR: r, batchLen: x.Rows}
	return out
}

func (brn *BatchRenorm) normalizeRenormOracle(x, mean, variance *tensor.Matrix, r, d []float64) *tensor.Matrix {
	out := brn.normalizeOracle(x, mean, variance, r)
	// Add the γ·d shift on top. d is a stop-gradient constant: it shifts the
	// forward value and contributes Σg·d to dγ, but carries no gradient to x.
	brn.cache.renormD = d
	for i := 0; i < out.Rows; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] += brn.Gamma.Value.Data[j] * d[j]
		}
	}
	return out
}

func (bn *BatchNorm) backwardOracle(grad *tensor.Matrix) *tensor.Matrix {
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
		grow := grad.Row(i)
		hrow := c.xhat.Row(i)
		for j, g := range grow {
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
	bn.dx = tensor.Ensure(bn.dx, grad.Rows, grad.Cols)
	out := bn.dx
	for i := 0; i < grad.Rows; i++ {
		grow := grad.Row(i)
		hrow := c.xhat.Row(i)
		orow := out.Row(i)
		for j, g := range grow {
			r := c.renormR[j]
			gamma := bn.Gamma.Value.Data[j]
			// z = (x-μ)/σ = x̂/r; standard BN input gradient in terms of z,
			// scaled by r because x̂ = r·z.
			z := hrow[j] / r
			dz := gamma * r * (g - sumG[j]/n - z*(sumGX[j]/r)/n)
			orow[j] = dz * c.invStd[j]
		}
	}
	return out
}

// saltedValues fills a rows×cols matrix with normal draws and, when salt is
// set, about one element in eight replaced by a value where a rewrite could
// part ways with the loop it replaced: both zeros, denormals, both
// infinities, NaN.
func saltedValues(rows, cols int, salt bool, rng *rand.Rand) *tensor.Matrix {
	specials := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Inf(1), math.Inf(-1), math.NaN(),
	}
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if salt && rng.IntN(8) == 0 {
			m.Data[i] = specials[rng.IntN(len(specials))]
		}
	}
	return m
}

// requireBits asserts got equals want bit for bit, NaN payloads included.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), oracle gives %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// oracleShapes are rows×features: one row, one feature, every features%4
// tail and the student's widths.
var oracleShapes = [][2]int{{1, 1}, {1, 48}, {2, 1}, {3, 5}, {5, 6}, {7, 7}, {4, 9}, {64, 48}, {64, 32}, {33, 13}}

func TestReLUBackwardMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 73))
	for _, sh := range oracleShapes {
		for _, salt := range []bool{false, true} {
			r := NewReLU("r")
			r.Forward(saltedValues(sh[0], sh[1], salt, rng), true)
			g := saltedValues(sh[0], sh[1], salt, rng)
			got := r.Backward(g).Clone()
			requireBits(t, "ReLU.Backward", got.Data, r.backwardOracle(g).Data)
		}
	}
}

// TestBatchNormMatchesOracle holds the eval forward, the training
// normalisation and the backward pass of BatchNorm (plain: r = 1, no d)
// and BatchRenorm (clipped r and d) to their oracles bit for bit, the
// parameter gradients they accumulate included. Salting reaches the input,
// the statistics the normalisation is handed and the upstream gradient.
func TestBatchNormMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 83))
	for _, sh := range oracleShapes {
		for _, renorm := range []bool{false, true} {
			for _, salt := range []bool{false, true} {
				rows, dim := sh[0], sh[1]
				brn := NewBatchRenorm("bn", dim)
				bn := &brn.BatchNorm
				for j := 0; j < dim; j++ {
					bn.Gamma.Value.Data[j] = 1 + 0.5*rng.NormFloat64()
					bn.Beta.Value.Data[j] = rng.NormFloat64()
					bn.RunMean.Data[j] = rng.NormFloat64()
					bn.RunVar.Data[j] = math.Exp(2 * rng.NormFloat64()) // r and d clip now and then
					bn.Gamma.Grad.Data[j] = rng.NormFloat64()
					bn.Beta.Grad.Data[j] = rng.NormFloat64()
				}
				x := saltedValues(rows, dim, salt, rng)
				requireBits(t, "evalForward", bn.evalForward(x).Clone().Data, bn.evalForwardOracle(x).Data)
				if rows < 2 {
					continue // a one-row batch has no training statistics
				}

				mean := saltedValues(1, dim, salt, rng)
				variance := saltedValues(1, dim, false, rng)
				for j, v := range variance.Data {
					variance.Data[j] = v * v
				}
				r, d := saltedValues(1, dim, salt, rng).Data, saltedValues(1, dim, salt, rng).Data
				var got, want *tensor.Matrix
				if renorm {
					got = brn.normalizeRenorm(x, mean, variance, r, d).Clone()
					xhat := bn.xhat.Clone()
					want = brn.normalizeRenormOracle(x, mean, variance, r, d)
					requireBits(t, "normalizeRenorm x̂", xhat.Data, bn.xhat.Data)
				} else {
					got = bn.normalize(x, mean, variance, nil).Clone()
					xhat := bn.xhat.Clone()
					want = bn.normalizeOracle(x, mean, variance, nil)
					requireBits(t, "normalize x̂", xhat.Data, bn.xhat.Data)
				}
				requireBits(t, "normalize", got.Data, want.Data)

				g := saltedValues(rows, dim, salt, rng)
				dGamma, dBeta := bn.Gamma.Grad.Clone(), bn.Beta.Grad.Clone()
				dx := bn.Backward(g).Clone()
				gotGamma, gotBeta := bn.Gamma.Grad.Clone(), bn.Beta.Grad.Clone()
				copy(bn.Gamma.Grad.Data, dGamma.Data)
				copy(bn.Beta.Grad.Data, dBeta.Data)
				requireBits(t, "Backward dx", dx.Data, bn.backwardOracle(g).Data)
				requireBits(t, "Backward dγ", gotGamma.Data, bn.Gamma.Grad.Data)
				requireBits(t, "Backward dβ", gotBeta.Data, bn.Beta.Grad.Data)
			}
		}
	}
}
