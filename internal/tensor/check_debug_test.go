//go:build tensordebug

package tensor

import "testing"

// TestAliasAssertions runs only under -tags tensordebug: matrix products
// and reductions must panic when the destination overlaps a source, and the
// permitted element-wise aliasing must stay silent.
func TestAliasAssertions(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected aliasing panic", name)
			}
		}()
		f()
	}

	a := New(4, 4)
	b := New(4, 4)
	bias := New(1, 4)
	var ws NZScratch
	mustPanic("MulBiasIntoNZ dst==a", func() { MulBiasIntoNZ(a, a, b, bias, &ws) })
	mustPanic("MulBiasIntoNZ dst==b", func() { MulBiasIntoNZ(b, a, b, bias, &ws) })
	mustPanic("MulABt dst==a", func() { MulABt(a, a, b, &ws) })
	mustPanic("MulAtBAddNZ dst==b", func() { MulAtBAddNZ(b, a, b, &ws) })
	mustPanic("SumRowsInto overlap", func() {
		row := &Matrix{Rows: 1, Cols: 4, Data: a.Data[:4]}
		SumRowsInto(row, a)
	})

	// Partial overlap through a shared backing array must also be caught.
	backing := make([]float64, 32)
	lo := FromSlice(4, 4, backing[:16])
	hi := FromSlice(4, 4, backing[8:24])
	mustPanic("MulBiasIntoNZ partial overlap", func() { MulBiasIntoNZ(hi, lo, b, bias, &ws) })

	// Element-wise aliasing is legal and must not panic.
	AddInPlace(a, a)
	a.ScaleInPlace(2)
}
