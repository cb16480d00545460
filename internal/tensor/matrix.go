// Package tensor provides the dense linear-algebra primitives used by the
// neural-network substrate. Only the small set of operations needed for
// mini-batch MLP training is implemented; everything is row-major float64.
//
// The products and reductions are destination-passing (MulBiasIntoNZ,
// MulABt, SumRowsInto, …): they write into a caller-owned matrix, and
// inplace.go documents the naming convention and the aliasing rules. Ensure
// grows reusable scratch and Pool recycles buffers by size, so the training
// hot path's steady state performs zero heap allocations. The few
// allocating constructors (New, FromRows, Clone, MeanRows, SelectRows, …)
// serve cold paths and tests.
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
// hand it to a buffer pool) afterwards.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
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

// AddInPlace adds b into a element-wise.
func AddInPlace(a, b *Matrix) {
	checkSameShape("addInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
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

// SelectRows returns a new matrix whose rows are m's rows at the given
// indices, in order.
func SelectRows(m *Matrix, idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	SelectRowsInto(out, m, idx)
	return out
}

// Norm2 returns the Frobenius norm of m.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
