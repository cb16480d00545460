package nn

import (
	"math"

	"shoggoth/internal/tensor"
)

// LossScratch owns the reusable gradient and probability buffers of the loss
// functions, so a training loop computing losses every step performs no
// steady-state allocations. The zero value is ready to use; methods return
// matrices that alias the scratch and stay valid until the next call.
type LossScratch struct {
	probs  []float64
	ceGrad *tensor.Matrix
	l1Grad *tensor.Matrix
}

// SoftmaxCrossEntropy computes the mean cross-entropy of logits (B×C)
// against integer labels and the gradient dL/dlogits (already divided by the
// batch size, ready for back-propagation). The gradient aliases the scratch.
func (s *LossScratch) SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	if len(labels) != logits.Rows {
		panic("nn: label count != batch size")
	}
	s.ceGrad = tensor.Ensure(s.ceGrad, logits.Rows, logits.Cols)
	grad := s.ceGrad
	if logits.Rows == 0 {
		return 0, grad
	}
	s.probs = ensureFloats(s.probs, logits.Cols)
	p := s.probs
	var loss float64
	invB := 1 / float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		tensor.SoftmaxRowInto(p, logits.Row(i))
		y := labels[i]
		if y < 0 || y >= logits.Cols {
			panic("nn: label out of range")
		}
		loss += -math.Log(math.Max(p[y], 1e-12))
		grow := grad.Row(i)
		for j, pj := range p {
			grow[j] = pj * invB
		}
		grow[y] -= invB
	}
	return loss * invB, grad
}

// SmoothL1 computes the masked mean smooth-L1 (Huber, δ=1) loss between
// pred and target (both B×D) and the gradient dL/dpred. Rows where mask[i]
// is false contribute nothing (background regions have no box target). The
// gradient aliases the scratch.
func (s *LossScratch) SmoothL1(pred, target *tensor.Matrix, mask []bool) (float64, *tensor.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: smoothL1 shape mismatch")
	}
	if len(mask) != pred.Rows {
		panic("nn: smoothL1 mask length mismatch")
	}
	s.l1Grad = tensor.EnsureZero(s.l1Grad, pred.Rows, pred.Cols)
	grad := s.l1Grad
	active := 0
	for _, m := range mask {
		if m {
			active++
		}
	}
	if active == 0 {
		return 0, grad
	}
	inv := 1 / float64(active*pred.Cols)
	var loss float64
	for i := 0; i < pred.Rows; i++ {
		if !mask[i] {
			continue
		}
		prow, trow, grow := pred.Row(i), target.Row(i), grad.Row(i)
		for j := range prow {
			d := prow[j] - trow[j]
			ad := math.Abs(d)
			if ad < 1 {
				loss += 0.5 * d * d
				grow[j] = d * inv
			} else {
				loss += ad - 0.5
				if d > 0 {
					grow[j] = inv
				} else {
					grow[j] = -inv
				}
			}
		}
	}
	return loss * inv, grad
}

// SoftmaxCrossEntropyShard is the row-shard form of SoftmaxCrossEntropy for
// parallel minibatch gradient accumulation: logits/labels cover one
// contiguous shard of the minibatch, while invB is the GLOBAL gradient
// normaliser 1/totalRows, so per-row gradients come out exactly as the
// whole-batch computation would produce them. The returned loss is the
// UNSCALED sum of per-row −log p_y; the caller reduces shard sums in a fixed
// tree order and multiplies by invB once, keeping the loss scalar
// byte-deterministic for every worker count.
//
//shoggoth:hotpath
func (s *LossScratch) SoftmaxCrossEntropyShard(logits *tensor.Matrix, labels []int, invB float64) (float64, *tensor.Matrix) {
	if len(labels) != logits.Rows {
		panic("nn: label count != batch size")
	}
	s.ceGrad = tensor.Ensure(s.ceGrad, logits.Rows, logits.Cols)
	grad := s.ceGrad
	if logits.Rows == 0 {
		return 0, grad
	}
	s.probs = ensureFloats(s.probs, logits.Cols)
	p := s.probs
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		tensor.SoftmaxRowInto(p, logits.Row(i))
		y := labels[i]
		if y < 0 || y >= logits.Cols {
			panic("nn: label out of range")
		}
		loss += -math.Log(math.Max(p[y], 1e-12))
		grow := grad.Row(i)
		for j, pj := range p {
			grow[j] = pj * invB
		}
		grow[y] -= invB
	}
	return loss, grad
}

// SmoothL1Shard is the row-shard form of SmoothL1: inv is the GLOBAL
// normaliser 1/(activeTotal·Cols) computed by the caller over the whole
// minibatch's mask (pass 0 when no row is active anywhere — the shard then
// contributes nothing, mirroring SmoothL1's empty-mask early return). The
// returned loss is the unscaled sum; the caller reduces and scales.
//
//shoggoth:hotpath
func (s *LossScratch) SmoothL1Shard(pred, target *tensor.Matrix, mask []bool, inv float64) (float64, *tensor.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: smoothL1 shape mismatch")
	}
	if len(mask) != pred.Rows {
		panic("nn: smoothL1 mask length mismatch")
	}
	s.l1Grad = tensor.EnsureZero(s.l1Grad, pred.Rows, pred.Cols)
	grad := s.l1Grad
	if inv == 0 {
		return 0, grad
	}
	var loss float64
	for i := 0; i < pred.Rows; i++ {
		if !mask[i] {
			continue
		}
		prow, trow, grow := pred.Row(i), target.Row(i), grad.Row(i)
		for j := range prow {
			d := prow[j] - trow[j]
			ad := math.Abs(d)
			if ad < 1 {
				loss += 0.5 * d * d
				grow[j] = d * inv
			} else {
				loss += ad - 0.5
				if d > 0 {
					grow[j] = inv
				} else {
					grow[j] = -inv
				}
			}
		}
	}
	return loss, grad
}

// SoftmaxCrossEntropy is the allocating form of LossScratch.SoftmaxCrossEntropy
// (a fresh gradient per call; identical math).
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	var s LossScratch
	return s.SoftmaxCrossEntropy(logits, labels)
}

// SmoothL1 is the allocating form of LossScratch.SmoothL1 (a fresh gradient
// per call; identical math).
func SmoothL1(pred, target *tensor.Matrix, mask []bool) (float64, *tensor.Matrix) {
	var s LossScratch
	return s.SmoothL1(pred, target, mask)
}
