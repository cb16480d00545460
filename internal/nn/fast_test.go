package nn

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/tensor"
)

// TestFastDenseMatchesExactWithinTolerance runs one dense forward/backward
// on both tiers and bounds the drift — the layer-level version of the
// kernel ULP tests in internal/tensor.
func TestFastDenseMatchesExactWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	exact := NewDense("d", 48, 32, rng)
	fast := exact.Clone().(*Dense)
	fast.SetCompute(Compute{Fast: true, Lane: tensor.LaneF64})

	x := tensor.New(64, 48)
	g := tensor.New(64, 32)
	rng2 := rand.New(rand.NewPCG(7, 7))
	for i := range x.Data {
		x.Data[i] = rng2.NormFloat64()
	}
	for i := range g.Data {
		g.Data[i] = rng2.NormFloat64()
	}

	const tol = 1e-12
	outE := exact.Forward(x, true)
	outF := fast.Forward(x, true)
	assertClose(t, "forward", outE, outF, tol)
	dxE := exact.Backward(g)
	dxF := fast.Backward(g)
	assertClose(t, "dx", dxE, dxF, tol)
	assertClose(t, "dW", exact.W.Grad, fast.W.Grad, tol)
	assertClose(t, "dB", exact.B.Grad, fast.B.Grad, tol)
}

func assertClose(t *testing.T, what string, a, b *tensor.Matrix, tol float64) {
	t.Helper()
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > tol*math.Max(1, math.Abs(a.Data[i])) {
			t.Fatalf("%s elem %d: exact %v fast %v", what, i, a.Data[i], b.Data[i])
		}
	}
}
