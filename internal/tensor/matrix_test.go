package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("expected zeroed matrix, got %v", m.Data)
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("bad shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Fatalf("bad elements: %v", m.Data)
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

// matMul is a × b through the exact tier's product kernel (zero bias).
func matMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	var ws NZScratch
	MulBiasIntoNZ(out, a, b, New(1, b.Cols), &ws)
	return out
}

// transposed returns mᵀ as a new matrix.
func transposed(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := matMul(a, b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("matmul: got %v want %v", got.Data, want.Data)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	matMul(New(2, 3), New(2, 3))
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a := randomMatrix(rng, 4, 5)
	b := randomMatrix(rng, 3, 5)
	got := New(a.Rows, b.Rows)
	var ws NZScratch
	MulABt(got, a, b, &ws)
	want := matMul(a, transposed(b))
	if !got.Equal(want, 1e-9) {
		t.Fatal("MulABt disagrees with a × bᵀ")
	}
}

func TestTMatMulMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := randomMatrix(rng, 6, 4)
	b := randomMatrix(rng, 6, 3)
	got := New(a.Cols, b.Cols)
	var ws NZScratch
	MulAtBAddNZ(got, a, b, &ws)
	want := matMul(transposed(a), b)
	if !got.Equal(want, 1e-9) {
		t.Fatal("MulAtBAddNZ onto zero disagrees with aᵀ × b")
	}
}

// TestTransposeInvolution: MulABt's k-major weight copy is bᵀ with the
// term offsets t·b.Rows, and copying that copy gives b back.
func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	m := randomMatrix(rng, 3, 7)
	var ws NZScratch
	bt, off := ws.kMajor(m)
	tm := FromSlice(m.Cols, m.Rows, append([]float64(nil), bt...))
	if !tm.Equal(transposed(m), 0) {
		t.Fatal("kMajor is not the transpose")
	}
	for k, o := range off {
		if o != k*m.Rows {
			t.Fatalf("kMajor offset %d = %d, want %d", k, o, k*m.Rows)
		}
	}
	var ws2 NZScratch
	back, _ := ws2.kMajor(tm)
	if !FromSlice(m.Rows, m.Cols, back).Equal(m, 0) {
		t.Fatal("transposing twice should be identity")
	}
}

// TestAddRowVector: the layer forward adds its bias row to every row of
// the product — through an identity weight, exactly m + v.
func TestAddRowVector(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	v := FromRows([][]float64{{10, 20}})
	id := FromRows([][]float64{{1, 0}, {0, 1}})
	got := New(2, 2)
	var ws NZScratch
	MulBiasIntoNZ(got, m, id, v, &ws)
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if !got.Equal(want, 0) {
		t.Fatalf("bias row: got %v", got.Data)
	}
}

func TestSumMeanVarRows(t *testing.T) {
	m := FromRows([][]float64{{1, 10}, {3, 30}})
	sum := New(1, 2)
	SumRowsInto(sum, m)
	if !sum.Equal(FromRows([][]float64{{4, 40}}), 0) {
		t.Fatal("sumRows wrong")
	}
	mean := MeanRows(m)
	if !mean.Equal(FromRows([][]float64{{2, 20}}), 0) {
		t.Fatal("meanRows wrong")
	}
	va := VarRows(m, mean)
	if !va.Equal(FromRows([][]float64{{1, 100}}), 1e-12) {
		t.Fatalf("varRows wrong: %v", va.Data)
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	got := SelectRows(m, []int{2, 0})
	want := FromRows([][]float64{{3, 3}, {1, 1}})
	if !got.Equal(want, 0) {
		t.Fatal("selectRows wrong")
	}
}

func TestSoftmaxRowProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Bound inputs so exp doesn't produce Inf under quick's extremes.
		row := []float64{clampT(a), clampT(b), clampT(c)}
		sm := make([]float64, len(row))
		SoftmaxRowInto(sm, row)
		var sum float64
		for _, v := range sm {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	row := []float64{1, 2, 3}
	shifted := []float64{101, 102, 103}
	a, b := make([]float64, 3), make([]float64, 3)
	SoftmaxRowInto(a, row)
	SoftmaxRowInto(b, shifted)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("softmax must be shift invariant")
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp wrong")
	}
}

func TestNorm2(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if math.Abs(m.Norm2()-5) > 1e-12 {
		t.Fatal("norm2 wrong")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		c := randomMatrix(rng, 2, 5)
		left := matMul(matMul(a, b), c)
		right := matMul(a, matMul(b, c))
		if !left.Equal(right, 1e-9) {
			t.Fatal("matmul not associative within tolerance")
		}
	}
}

func TestScaleAndAddInPlace(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	s := m.Clone()
	s.ScaleInPlace(3)
	if !s.Equal(FromRows([][]float64{{3, 6}}), 0) {
		t.Fatal("scale wrong")
	}
	if !m.Equal(FromRows([][]float64{{1, 2}}), 0) {
		t.Fatal("scaling a clone must not mutate the original")
	}
	AddInPlace(m, s)
	if !m.Equal(FromRows([][]float64{{4, 8}}), 0) {
		t.Fatal("addInPlace wrong")
	}
}

func clampT(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if v > 50 {
		return 50
	}
	if v < -50 {
		return -50
	}
	return v
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}
