// Package tensor is a stub of the repo's tensor package: the hotalloc
// analyzer keys on the package name and function names, so the fixture only
// needs matching signatures, not real math.
package tensor

// Matrix is a minimal stand-in for the real dense matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a fresh matrix (hot-path finding).
func New(r, c int) *Matrix { return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)} }

// MeanRows allocates the column means (hot-path finding).
func MeanRows(m *Matrix) *Matrix { return New(1, m.Cols) }

// SelectRows allocates a copy of the chosen rows (hot-path finding).
func SelectRows(m *Matrix, idx []int) *Matrix { return New(len(idx), m.Cols) }

// Clone allocates a copy (hot-path finding).
func Clone(a *Matrix) *Matrix { return New(a.Rows, a.Cols) }

// NZScratch pins the exact kernels' compaction buffers.
type NZScratch struct {
	Val []float64
}

// MulBiasIntoNZ is the destination-passing layer product — always legal.
func MulBiasIntoNZ(dst, a, b, bias *Matrix, ws *NZScratch) {}

// Ensure reshapes dst in place, growing only on first use — always legal.
func Ensure(dst *Matrix, r, c int) {}

// At reads one element.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Lane names the fast kernels' arithmetic width (stub of the real Lane).
type Lane int

// LaneF64 is the fast tier's one lane.
const LaneF64 Lane = 0

// FastScratch pins the fast kernels' staging buffers.
type FastScratch struct {
	BT []float64
}

// FastMulBiasInto is the fast tier's destination-passing layer product —
// always legal.
func FastMulBiasInto(dst, a, b, bias *Matrix, lane Lane, ws *FastScratch) {}
