package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// saltedMatrix is sparseMatrix with, when salt is set, about one element in
// twenty replaced by a value where a vector lane could part ways with the
// scalar loop: both zeros, denormals, both infinities, NaN.
func saltedMatrix(rows, cols int, sparsity float64, salt bool, rng *rand.Rand) *Matrix {
	m := sparseMatrix(rows, cols, sparsity, rng)
	if !salt {
		return m
	}
	specials := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for i := range m.Data {
		if rng.IntN(20) == 0 {
			m.Data[i] = specials[rng.IntN(len(specials))]
		}
	}
	return m
}

// guarded returns a rows×cols matrix holding src's values (or stale junk
// when src is nil) whose storage sits inside a larger array of sentinels, and
// a check that the sentinels on both sides are intact: the kernel stores
// whole vectors through a raw pointer, so a store past the row must not go
// unseen.
func guarded(rows, cols int, src *Matrix) (*Matrix, func() bool) {
	const pad, junk = 8, -7.25
	sentinel := math.Float64frombits(0x7FF8DEADBEEF0001)
	backing := make([]float64, rows*cols+2*pad)
	for i := range backing {
		backing[i] = sentinel
	}
	m := &Matrix{Rows: rows, Cols: cols, Data: backing[pad : pad+rows*cols : pad+rows*cols]}
	for i := range m.Data {
		m.Data[i] = junk
		if src != nil {
			m.Data[i] = src.Data[i]
		}
	}
	intact := func() bool {
		for i := 0; i < pad; i++ {
			if math.Float64bits(backing[i]) != math.Float64bits(sentinel) ||
				math.Float64bits(backing[len(backing)-1-i]) != math.Float64bits(sentinel) {
				return false
			}
		}
		return true
	}
	return m, intact
}

// requireSameBits asserts got equals want bit for bit, -0 and +0 distinct;
// two NaNs match whatever their payloads (which operand's payload survives
// an add of two NaNs is the one thing the contract leaves open).
func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %v (%#x), Go loops give %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// bothLanes runs f on the kernel path and on the Go path (useAsm on, then
// off; the caller restores it), each into its own guarded copy of init, and
// requires identical bits and no store outside the destination.
func bothLanes(t *testing.T, what string, rows, cols int, init *Matrix, f func(dst *Matrix)) {
	t.Helper()
	var out [2]*Matrix
	for pass, asm := range []bool{true, false} {
		dst, intact := guarded(rows, cols, init)
		useAsm = asm
		f(dst)
		if !intact() {
			t.Fatalf("%s (asm=%v): wrote outside the destination", what, asm)
		}
		out[pass] = dst
	}
	requireSameBits(t, what, out[0], out[1])
}

// TestNZKernelMatchesGoLoops runs the three NZ entry points and MulABt twice — through
// nzRowAVX and, with useAsm switched off, through the Go loops alone — and
// requires identical bits. Every column count 1…100 (each pass width of the
// kernel and each 1–3 column scalar tail) meets every inner dimension 0…50;
// row counts {0…5, 64} and sparsities {0, 0.5, 0.95, 1} cycle underneath so
// that each column count sees all of them; every third case is salted.
func TestNZKernelMatchesGoLoops(t *testing.T) {
	if !useAsm {
		t.Skip("no AVX2 here: the Go loops are the only path, there is nothing to compare")
	}
	defer func() { useAsm = true }()
	rowCounts := []int{0, 1, 2, 3, 4, 5, 64}
	sparsities := []float64{0, 0.5, 0.95, 1}
	rng := rand.New(rand.NewPCG(19, 23))
	var ws NZScratch
	c := 0
	for n := 1; n <= 100; n++ {
		for k := 0; k <= 50; k++ {
			m := rowCounts[c%len(rowCounts)]
			sp := sparsities[(c/len(rowCounts))%len(sparsities)]
			salt := c%3 == 0
			c++

			checkExactKernels(t, m, k, n, sp, salt, rng, &ws)
		}
	}
}

// checkExactKernels draws one case — every m×n output from an inner
// dimension k, left operands with sparsity sp, all salted when salt is set
// — and holds MulIntoNZ, MulBiasIntoNZ, MulAtBAddNZ and MulABt to their Go
// loops through bothLanes.
func checkExactKernels(t *testing.T, m, k, n int, sp float64, salt bool, rng *rand.Rand, ws *NZScratch) {
	t.Helper()
	shape := fmt.Sprintf(" %dx%d·%dx%d", m, k, k, n)
	a := saltedMatrix(m, k, sp, salt, rng)
	b := saltedMatrix(k, n, 0.1, salt, rng)
	bias := saltedMatrix(1, n, 0.1, salt, rng)
	bothLanes(t, "MulIntoNZ"+shape, m, n, nil, func(dst *Matrix) { MulIntoNZ(dst, a, b, ws) })
	bothLanes(t, "MulBiasIntoNZ"+shape, m, n, nil, func(dst *Matrix) { MulBiasIntoNZ(dst, a, b, bias, ws) })

	// dst (m×n) += atᵀ × g over k shared rows.
	at := saltedMatrix(k, m, sp, salt, rng)
	g := saltedMatrix(k, n, 0.1, salt, rng)
	acc := saltedMatrix(m, n, 0.1, salt, rng)
	bothLanes(t, "MulAtBAddNZ"+shape, m, n, acc, func(dst *Matrix) { MulAtBAddNZ(dst, at, g, ws) })

	// dst (m×n) = a × btᵀ, bt n×k: MulABt's inner dimension is k.
	bt := saltedMatrix(n, k, 0.1, salt, rng)
	bothLanes(t, "MulABt"+shape, m, n, nil, func(dst *Matrix) { MulABt(dst, a, bt, ws) })
}

// TestNZShortOperandPanics: a Matrix whose Data is shorter than its shape
// says must be refused at the entry point, on either path — past it the
// kernel reads and writes through raw pointers.
func TestNZShortOperandPanics(t *testing.T) {
	full := func(rows, cols int) *Matrix {
		m := New(rows, cols)
		m.Fill(1)
		return m
	}
	short := func(rows, cols int) *Matrix {
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols-1)}
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: a short operand did not panic", name)
			}
		}()
		f()
	}
	var ws NZScratch
	a, at := full(3, 5), full(5, 3)
	mustPanic("MulIntoNZ weights", func() { MulIntoNZ(full(3, 8), a, short(5, 8), &ws) })
	mustPanic("MulIntoNZ destination", func() { MulIntoNZ(short(3, 8), a, full(5, 8), &ws) })
	mustPanic("MulBiasIntoNZ weights", func() { MulBiasIntoNZ(full(3, 8), a, short(5, 8), full(1, 8), &ws) })
	mustPanic("MulBiasIntoNZ bias", func() { MulBiasIntoNZ(full(3, 8), a, full(5, 8), short(1, 8), &ws) })
	mustPanic("MulBiasIntoNZ destination", func() { MulBiasIntoNZ(short(3, 8), a, full(5, 8), full(1, 8), &ws) })
	mustPanic("MulAtBAddNZ gradient", func() { MulAtBAddNZ(full(3, 8), at, short(5, 8), &ws) })
	mustPanic("MulAtBAddNZ destination", func() { MulAtBAddNZ(short(3, 8), at, full(5, 8), &ws) })
	mustPanic("MulABt weights", func() { MulABt(full(3, 8), a, short(8, 5), &ws) })
	mustPanic("MulABt destination", func() { MulABt(short(3, 8), a, full(8, 5), &ws) })
}

// TestNZZeroAlloc: on a warm scratch none of the NZ entry points (nor MulABt) allocates,
// whichever path serves them.
func TestNZZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	a := sparseMatrix(64, 48, 0.5, rng)
	w := sparseMatrix(48, 50, 0, rng) // 48 vector columns and a 2-column tail
	g := sparseMatrix(64, 50, 0, rng)
	bias := sparseMatrix(1, 50, 0, rng)
	wt := sparseMatrix(50, 48, 0, rng) // MulABt's weights: g × wtᵀ is 64×50
	dst, acc, dx := New(64, 50), New(48, 50), New(64, 50)
	var ws NZScratch
	MulAtBAddNZ(acc, a, g, &ws) // the larger of the two compaction sizes
	MulABt(dx, a, wt, &ws)      // sizes the k-major weight copy
	for name, f := range map[string]func(){
		"MulIntoNZ":     func() { MulIntoNZ(dst, a, w, &ws) },
		"MulBiasIntoNZ": func() { MulBiasIntoNZ(dst, a, w, bias, &ws) },
		"MulAtBAddNZ":   func() { MulAtBAddNZ(acc, a, g, &ws) },
		"MulABt":        func() { MulABt(dx, a, wt, &ws) },
	} {
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s: %v allocs per call on a warm NZScratch, want 0", name, n)
		}
	}
}

// FuzzExactKernelsMatchGoLoops is TestNZKernelMatchesGoLoops driven by the
// fuzzer: a shape up to 65×49·49×100, a sparsity, a value stream and
// whether to salt it choose one case, and MulIntoNZ, MulBiasIntoNZ,
// MulAtBAddNZ and MulABt must give the same bits through nzRowAVX as
// through the Go loops alone, writing nothing outside the destination.
// Seeds are checked in under testdata/fuzz.
func FuzzExactKernelsMatchGoLoops(f *testing.F) {
	f.Fuzz(func(t *testing.T, mb, kb, nb, sparsity uint8, seed uint64, salt bool) {
		if !useAsm {
			t.Skip("no AVX2 here: the Go loops are the only path, there is nothing to compare")
		}
		defer func() { useAsm = true }()
		var ws NZScratch
		checkExactKernels(t, int(mb)%66, int(kb)%50, 1+int(nb)%100, float64(sparsity)/256, salt, rand.New(rand.NewPCG(seed, 61)), &ws)
	})
}
