package nn

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	d := NewDense("d", 2, 2, rng)
	d.W.Value = tensor.FromRows([][]float64{{1, 2}, {3, 4}})
	d.B.Value = tensor.FromRows([][]float64{{10, 20}})
	out := d.Forward(tensor.FromRows([][]float64{{1, 1}}), false)
	want := tensor.FromRows([][]float64{{14, 26}})
	if !out.Equal(want, 1e-12) {
		t.Fatalf("dense forward: got %v", out.Data)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.FromRows([][]float64{{-1, 2}, {3, -4}})
	out := r.Forward(x, true)
	want := tensor.FromRows([][]float64{{0, 2}, {3, 0}})
	if !out.Equal(want, 0) {
		t.Fatalf("relu forward: got %v", out.Data)
	}
	g := r.Backward(tensor.FromRows([][]float64{{5, 5}, {5, 5}}))
	wantG := tensor.FromRows([][]float64{{0, 5}, {5, 0}})
	if !g.Equal(wantG, 0) {
		t.Fatalf("relu backward: got %v", g.Data)
	}
}

// TestReLUForwardMatchesBranchingLoop holds the branch-free Forward to the
// `if v > 0` loop it replaced, bit for bit, in both modes: the values where
// the bit trick could go wrong (both zeros, both infinities, NaNs of either
// sign and payload, the denormal and normal extremes) plus 10⁴ random values
// and random bit patterns. The training mask must agree too.
func TestReLUForwardMatchesBranchingLoop(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x800FFFFFFFFFFFFF), // largest denormals
		math.Float64frombits(0x0010000000000000), math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rand.New(rand.NewPCG(21, 22))
	for i := 0; i < 5000; i++ {
		vals = append(vals, rng.NormFloat64(), math.Float64frombits(rng.Uint64()))
	}
	x := tensor.FromSlice(1, len(vals), vals)
	want := make([]float64, len(vals))
	wantMask := make([]bool, len(vals))
	for i, v := range vals {
		if v > 0 {
			want[i], wantMask[i] = v, true
		}
	}
	r := NewReLU("r")
	for _, train := range []bool{false, true} {
		out := r.Forward(x, train)
		for i, v := range vals {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want[i]) {
				t.Fatalf("train=%v: relu(%v [%#x]) = %v [%#x], want %v", train, v, math.Float64bits(v), out.Data[i], math.Float64bits(out.Data[i]), want[i])
			}
			if train && (r.mask[i] != 0) != wantMask[i] {
				t.Fatalf("relu(%v [%#x]): mask %v, want %v", v, math.Float64bits(v), r.mask[i], wantMask[i])
			}
		}
	}
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	x := tensor.FromRows([][]float64{{1, 100}, {3, 300}, {5, 500}, {7, 700}})
	out := bn.Forward(x, true)
	mean := tensor.MeanRows(out)
	for j := 0; j < 2; j++ {
		if math.Abs(mean.Data[j]) > 1e-9 {
			t.Fatalf("BN output mean should be ~0, got %v", mean.Data)
		}
	}
	va := tensor.VarRows(out, mean)
	for j := 0; j < 2; j++ {
		if math.Abs(va.Data[j]-1) > 1e-3 {
			t.Fatalf("BN output var should be ~1, got %v", va.Data)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	rng := rand.New(rand.NewPCG(2, 2))
	for it := 0; it < 400; it++ {
		x := tensor.New(32, 1)
		for i := range x.Data {
			x.Data[i] = 5 + 2*rng.NormFloat64()
		}
		bn.Forward(x, true)
	}
	if math.Abs(bn.RunMean.Data[0]-5) > 0.3 {
		t.Fatalf("running mean should approach 5, got %v", bn.RunMean.Data[0])
	}
	if math.Abs(bn.RunVar.Data[0]-4) > 1.0 {
		t.Fatalf("running var should approach 4, got %v", bn.RunVar.Data[0])
	}
}

func TestBatchRenormEqualsBNWhenStatsMatch(t *testing.T) {
	// When running stats equal batch stats, r≈1 and d≈0 so BRN ≈ BN.
	brn := NewBatchRenorm("brn", 2)
	bn := NewBatchNorm("bn", 2)
	x := tensor.FromRows([][]float64{{-1, 4}, {1, 6}})
	mean := tensor.MeanRows(x)
	va := tensor.VarRows(x, mean)
	copy(brn.RunMean.Data, mean.Data)
	copy(brn.RunVar.Data, va.Data)
	outB := brn.Forward(x, true)
	outN := bn.Forward(x, true)
	if !outB.Equal(outN, 1e-6) {
		t.Fatalf("BRN should equal BN when stats match: %v vs %v", outB.Data, outN.Data)
	}
}

func TestBatchRenormClipsCorrections(t *testing.T) {
	brn := NewBatchRenorm("brn", 1)
	brn.RMax, brn.DMax = 2, 1
	// Running stats wildly different from batch stats -> r and d must clip,
	// keeping the output bounded.
	brn.RunMean.Data[0] = 1000
	brn.RunVar.Data[0] = 1e-4
	x := tensor.FromRows([][]float64{{0}, {1}, {2}, {3}})
	out := brn.Forward(x, true)
	for _, v := range out.Data {
		if math.Abs(v) > 10 {
			t.Fatalf("clipped BRN output should stay bounded, got %v", out.Data)
		}
	}
}

func TestFreezeStatsStopsRunningUpdates(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	bn.FreezeStats = true
	before := bn.RunMean.Data[0]
	x := tensor.FromRows([][]float64{{10}, {20}})
	bn.Forward(x, true)
	if bn.RunMean.Data[0] != before {
		t.Fatal("FreezeStats must prevent running-stat updates")
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := tensor.FromRows([][]float64{{0, 0}})
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-9 {
		t.Fatalf("CE of uniform logits should be ln2, got %v", loss)
	}
	if math.Abs(grad.At(0, 0)-(-0.5)) > 1e-9 || math.Abs(grad.At(0, 1)-0.5) > 1e-9 {
		t.Fatalf("CE grad wrong: %v", grad.Data)
	}
}

func TestSmoothL1Zero(t *testing.T) {
	p := tensor.FromRows([][]float64{{1, 2}})
	loss, grad := SmoothL1(p, p.Clone(), []bool{true})
	if loss != 0 || grad.Norm2() != 0 {
		t.Fatal("identical pred/target must give zero loss and grad")
	}
}

func TestSmoothL1MaskExcludesRows(t *testing.T) {
	p := tensor.FromRows([][]float64{{0, 0}, {5, 5}})
	tt := tensor.FromRows([][]float64{{0, 0}, {0, 0}})
	loss, grad := SmoothL1(p, tt, []bool{true, false})
	if loss != 0 {
		t.Fatalf("masked row must not contribute, loss=%v", loss)
	}
	if grad.Row(1)[0] != 0 || grad.Row(1)[1] != 0 {
		t.Fatal("masked row must have zero grad")
	}
}

func TestSGDReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	net := NewSequential(
		NewDense("d1", 2, 16, rng), NewReLU("r1"),
		NewDense("d2", 16, 2, rng),
	)
	opt := NewSGD(0.1, 0.9)
	// XOR-ish separable task.
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	labels := []int{0, 1, 1, 0}
	first := -1.0
	var last float64
	for it := 0; it < 300; it++ {
		out := net.Forward(x, true)
		loss, g := SoftmaxCrossEntropy(out, labels)
		if first < 0 {
			first = loss
		}
		last = loss
		net.Backward(g)
		opt.Step(net.Params())
	}
	if last > first*0.2 {
		t.Fatalf("SGD failed to reduce loss: first=%v last=%v", first, last)
	}
	out := net.Forward(x, false)
	for i, want := range labels {
		row := out.Row(i)
		got := 0
		for j, v := range row {
			if v > row[got] {
				got = j
			}
		}
		if got != want {
			t.Fatalf("network should fit XOR exactly: row %d predicts %d, want %d", i, got, want)
		}
	}
}

func TestLRScaleZeroFreezesLayer(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	net := NewSequential(NewDense("front", 2, 4, rng), NewReLU("r"), NewDense("head", 4, 2, rng))
	net.SetLRScaleRange(0, 1, 0) // freeze front dense
	frozen := net.Layer(0).(*Dense).W.Value.Clone()
	opt := NewSGD(0.5, 0.9)
	x := tensor.FromRows([][]float64{{1, 2}, {3, 4}})
	for it := 0; it < 20; it++ {
		out := net.Forward(x, true)
		_, g := SoftmaxCrossEntropy(out, []int{0, 1})
		net.Backward(g)
		opt.Step(net.Params())
	}
	if !net.Layer(0).(*Dense).W.Value.Equal(frozen, 0) {
		t.Fatal("frozen layer weights must not change")
	}
	head := net.Layer(2).(*Dense)
	if head.W.Grad.Norm2() != 0 {
		t.Fatal("grads should be cleared after Step")
	}
}

func TestForwardRangeSplitMatchesFullForward(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	net := NewSequential(
		NewDense("d1", 3, 8, rng), NewReLU("r1"), NewBatchRenorm("n1", 8),
		NewDense("d2", 8, 4, rng), NewReLU("r2"),
		NewDense("d3", 4, 2, rng),
	)
	x := tensor.New(6, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	full := net.Forward(x, false)
	mid := net.ForwardRange(0, 3, x, false)
	split := net.ForwardRange(3, net.Len(), mid, false)
	if !full.Equal(split, 1e-12) {
		t.Fatal("ForwardRange split must equal full forward")
	}
}

func TestBackwardRangeStopsAtReplayLayer(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	net := NewSequential(
		NewDense("front", 3, 5, rng), NewReLU("r1"),
		NewDense("head", 5, 2, rng),
	)
	x := tensor.New(4, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Forward only the head range in train mode using front activations.
	act := net.ForwardRange(0, 2, x, false)
	out := net.ForwardRange(2, 3, act, true)
	_, g := SoftmaxCrossEntropy(out, []int{0, 1, 0, 1})
	net.BackwardRange(2, 3, g)
	front := net.Layer(0).(*Dense)
	if front.W.Grad.Norm2() != 0 {
		t.Fatal("front layer must receive no gradient when backward stops at replay layer")
	}
	head := net.Layer(2).(*Dense)
	if head.W.Grad.Norm2() == 0 {
		t.Fatal("head layer should receive gradient")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	net := NewSequential(NewDense("d", 2, 3, rng), NewBatchRenorm("n", 3))
	c := net.Clone()
	net.Layer(0).(*Dense).W.Value.Data[0] = 999
	if c.Layer(0).(*Dense).W.Value.Data[0] == 999 {
		t.Fatal("clone must not share weight storage")
	}
	// Cloned BRN must preserve running stats but not share them.
	brn := net.Layer(1).(*BatchRenorm)
	cbrn := c.Layer(1).(*BatchRenorm)
	brn.RunMean.Data[0] = 123
	if cbrn.RunMean.Data[0] == 123 {
		t.Fatal("clone must not share running stats")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	a := NewSequential(NewDense("d", 2, 2, rng))
	b := NewSequential(NewDense("d", 2, 2, rng))
	b.CopyWeightsFrom(a)
	x := tensor.FromRows([][]float64{{1, 2}})
	if !a.Forward(x, false).Equal(b.Forward(x, false), 0) {
		t.Fatal("CopyWeightsFrom must make outputs identical")
	}
}

func TestOutDim(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	net := NewSequential(NewDense("d1", 7, 9, rng), NewReLU("r"), NewBatchRenorm("n", 9), NewDense("d2", 9, 3, rng))
	if net.OutDim(7, 3) != 9 {
		t.Fatalf("OutDim to replay layer: got %d", net.OutDim(7, 3))
	}
	if net.OutDim(7, net.Len()) != 3 {
		t.Fatalf("OutDim full: got %d", net.OutDim(7, net.Len()))
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	net := NewSequential(NewDense("d", 2, 2, rng))
	opt := NewSGD(0.1, 0)
	opt.WeightDecay = 0.5
	before := net.Layer(0).(*Dense).W.Value.Norm2()
	// Zero gradient step: only decay applies.
	net.ZeroGrads()
	opt.Step(net.Params())
	after := net.Layer(0).(*Dense).W.Value.Norm2()
	if after >= before {
		t.Fatalf("weight decay should shrink weights: %v -> %v", before, after)
	}
}
