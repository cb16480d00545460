// Package tensor provides the dense linear-algebra primitives used by the
// neural-network substrate. Only the small set of operations needed for
// mini-batch MLP training is implemented; everything is row-major float64.
//
// Every allocating op (MatMul, Add, SumRows, …) has a destination-passing
// *Into twin (MulInto, AddInto, SumRowsInto, …) that writes into a
// caller-owned matrix; inplace.go documents the naming convention and the
// aliasing rules, Ensure grows reusable scratch, and Pool recycles buffers
// by size. The hot training path is built entirely from the *Into forms so
// its steady state performs zero heap allocations, while the allocating
// forms remain for cold paths and tests. Both forms perform identical
// float64 operations in identical order, so results are bit-for-bit equal.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
// A Matrix with Rows == 1 doubles as a row vector.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero-initialised rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows*cols, row-major) in a Matrix without
// copying. The matrix aliases data: the caller must not write to data (or
// hand it to a buffer pool) afterwards. Callers that keep using or recycling
// the slice — e.g. feeding a reused staging buffer — must use FromSliceCopy
// instead.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromSliceCopy builds a rows×cols matrix from a copy of data, leaving the
// caller free to reuse the slice. This is the safe alternative to FromSlice
// when the source buffer outlives the call.
func FromSliceCopy(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// FromRows builds a matrix by copying the given equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and o have identical shape and elements within eps.
func (m *Matrix) Equal(o *Matrix, eps float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-o.Data[i]) > eps {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// MatMul returns a × b. Panics when inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// MatMulT returns a × bᵀ, avoiding an explicit transpose of b.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	var ws NZScratch
	MulABt(out, a, b, &ws)
	return out
}

// TMatMul returns aᵀ × b, avoiding an explicit transpose of a.
func TMatMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	MulAtB(out, a, b)
	return out
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Add returns a + b element-wise.
func Add(a, b *Matrix) *Matrix {
	checkSameShape("add", a, b)
	out := New(a.Rows, a.Cols)
	AddInto(out, a, b)
	return out
}

// Sub returns a − b element-wise.
func Sub(a, b *Matrix) *Matrix {
	checkSameShape("sub", a, b)
	out := New(a.Rows, a.Cols)
	SubInto(out, a, b)
	return out
}

// Mul returns the element-wise (Hadamard) product a ⊙ b.
func Mul(a, b *Matrix) *Matrix {
	checkSameShape("mul", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// AddInPlace adds b into a element-wise.
func AddInPlace(a, b *Matrix) {
	checkSameShape("addInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Scale returns m scaled by s as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := New(m.Rows, m.Cols)
	ScaleInto(out, m, s)
	return out
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddRowVector adds the 1×Cols row vector v to every row of m, returning a
// new matrix.
func AddRowVector(m, v *Matrix) *Matrix {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: addRowVector shape mismatch %dx%d + %dx%d", m.Rows, m.Cols, v.Rows, v.Cols))
	}
	out := New(m.Rows, m.Cols)
	AddRowVectorInto(out, m, v)
	return out
}

// SumRows returns a 1×Cols row vector with the column sums of m.
func SumRows(m *Matrix) *Matrix {
	out := New(1, m.Cols)
	SumRowsInto(out, m)
	return out
}

// MeanRows returns a 1×Cols row vector with the column means of m.
func MeanRows(m *Matrix) *Matrix {
	out := New(1, m.Cols)
	MeanRowsInto(out, m)
	return out
}

// VarRows returns a 1×Cols row vector with the (biased) column variances of
// m around the provided mean row vector.
func VarRows(m, mean *Matrix) *Matrix {
	out := New(1, m.Cols)
	VarRowsInto(out, m, mean)
	return out
}

// ConcatRows stacks a on top of b (equal column counts).
func ConcatRows(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols && a.Rows != 0 && b.Rows != 0 {
		panic(fmt.Sprintf("tensor: concatRows col mismatch %d vs %d", a.Cols, b.Cols))
	}
	cols := a.Cols
	if a.Rows == 0 {
		cols = b.Cols
	}
	out := New(a.Rows+b.Rows, cols)
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// SelectRows returns a new matrix whose rows are m's rows at the given
// indices, in order.
func SelectRows(m *Matrix, idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	SelectRowsInto(out, m, idx)
	return out
}

// ArgMaxRow returns the index of the largest value in row i.
func (m *Matrix) ArgMaxRow(i int) int {
	row := m.Row(i)
	best, bi := math.Inf(-1), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

// Norm2 returns the Frobenius norm of m.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
