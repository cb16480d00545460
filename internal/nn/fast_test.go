package nn

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/tensor"
)

// TestFastShardLossRowGradsBitIdentical locks the foundation of sharded
// gradient accumulation: a row's loss gradient must not depend on which
// shard computed it. Every shard uses the GLOBAL normaliser, so shard-local
// gradient rows are bit-identical to the whole-batch computation's rows.
func TestFastShardLossRowGradsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 21))
	const rows, classes, boxDim = 37, 6, 4
	logits := tensor.New(rows, classes)
	pred := tensor.New(rows, boxDim)
	target := tensor.New(rows, boxDim)
	labels := make([]int, rows)
	mask := make([]bool, rows)
	for i := range logits.Data {
		logits.Data[i] = rng.NormFloat64()
	}
	for i := range pred.Data {
		pred.Data[i] = rng.NormFloat64()
		target.Data[i] = rng.NormFloat64()
	}
	for i := range labels {
		labels[i] = rng.IntN(classes)
		mask[i] = rng.IntN(3) > 0
	}

	var whole LossScratch
	wholeCE, wholeCEGrad := whole.SoftmaxCrossEntropy(logits, labels)
	wholeL1, wholeL1Grad := whole.SmoothL1(pred, target, mask)

	active := 0
	for _, m := range mask {
		if m {
			active++
		}
	}
	invB := 1 / float64(rows)
	invL1 := 0.0
	if active > 0 {
		invL1 = 1 / float64(active*boxDim)
	}

	const shards = 8
	var sumCE, sumL1 float64
	for r := 0; r < shards; r++ {
		lo, hi := r*rows/shards, (r+1)*rows/shards
		var sh LossScratch
		lv := &tensor.Matrix{Rows: hi - lo, Cols: classes, Data: logits.Data[lo*classes : hi*classes]}
		ce, ceGrad := sh.SoftmaxCrossEntropyShard(lv, labels[lo:hi], invB)
		sumCE += ce
		for i := 0; i < hi-lo; i++ {
			wantRow := wholeCEGrad.Row(lo + i)
			gotRow := ceGrad.Row(i)
			for j := range wantRow {
				if math.Float64bits(wantRow[j]) != math.Float64bits(gotRow[j]) {
					t.Fatalf("CE grad row %d col %d: shard %v != whole %v", lo+i, j, gotRow[j], wantRow[j])
				}
			}
		}
		pv := &tensor.Matrix{Rows: hi - lo, Cols: boxDim, Data: pred.Data[lo*boxDim : hi*boxDim]}
		tv := &tensor.Matrix{Rows: hi - lo, Cols: boxDim, Data: target.Data[lo*boxDim : hi*boxDim]}
		l1, l1Grad := sh.SmoothL1Shard(pv, tv, mask[lo:hi], invL1)
		sumL1 += l1
		for i := 0; i < hi-lo; i++ {
			wantRow := wholeL1Grad.Row(lo + i)
			gotRow := l1Grad.Row(i)
			for j := range wantRow {
				if math.Float64bits(wantRow[j]) != math.Float64bits(gotRow[j]) {
					t.Fatalf("L1 grad row %d col %d: shard %v != whole %v", lo+i, j, gotRow[j], wantRow[j])
				}
			}
		}
	}
	if d := math.Abs(sumCE*invB - wholeCE); d > 1e-12*math.Max(1, math.Abs(wholeCE)) {
		t.Fatalf("CE loss: sharded %v whole %v", sumCE*invB, wholeCE)
	}
	if d := math.Abs(sumL1*invL1 - wholeL1); d > 1e-12*math.Max(1, math.Abs(wholeL1)) {
		t.Fatalf("L1 loss: sharded %v whole %v", sumL1*invL1, wholeL1)
	}
}

// TestFastShadowClone locks the shadow-clone contract: shared parameter
// values, private gradients, and a clean refusal on batch-statistics layers.
func TestFastShadowClone(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	d := NewDense("d", 8, 4, rng)
	d.SetCompute(Compute{Fast: true, Lane: tensor.LaneF64})
	sc := d.ShadowClone()
	if sc.W.Value != d.W.Value || sc.B.Value != d.B.Value {
		t.Fatal("shadow clone must share parameter value matrices")
	}
	if sc.W.Grad == d.W.Grad || sc.B.Grad == d.B.Grad {
		t.Fatal("shadow clone must own private gradient accumulators")
	}
	if sc.compute != d.compute {
		t.Fatal("shadow clone must inherit the compute tier")
	}

	net := NewSequential(NewDense("a", 4, 4, rng), NewReLU("r"), NewDense("b", 4, 2, rng))
	if _, ok := net.ShadowClone(); !ok {
		t.Fatal("Dense+ReLU network must be shadow-cloneable")
	}
	withNorm := NewSequential(NewDense("a", 4, 4, rng), NewBatchRenorm("brn", 4))
	if _, ok := withNorm.ShadowClone(); ok {
		t.Fatal("batch-statistics layers must refuse shadow cloning")
	}
	if tail, ok := withNorm.ShadowCloneRange(0, 1); !ok || tail.Len() != 1 {
		t.Fatal("range excluding the norm must shadow-clone")
	}
}

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
