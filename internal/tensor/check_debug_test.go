//go:build tensordebug

package tensor

import "testing"

// TestAliasAssertions runs only under -tags tensordebug: *Into matrix
// products must panic when the destination overlaps a source, and the
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
	mustPanic("MulInto dst==a", func() { MulInto(a, a, b) })
	mustPanic("MulInto dst==b", func() { MulInto(b, a, b) })
	mustPanic("MulABt dst==a", func() { MulABt(a, a, b, &NZScratch{}) })
	mustPanic("MulAtB dst==b", func() { MulAtB(b, a, b) })
	mustPanic("SumRowsInto overlap", func() {
		row := &Matrix{Rows: 1, Cols: 4, Data: a.Data[:4]}
		SumRowsInto(row, a)
	})

	// Partial overlap through a shared backing array must also be caught.
	backing := make([]float64, 32)
	lo := FromSlice(4, 4, backing[:16])
	hi := FromSlice(4, 4, backing[8:24])
	mustPanic("MulInto partial overlap", func() { MulInto(hi, lo, b) })

	// Element-wise aliasing is legal and must not panic.
	AddInto(a, a, b)
	ScaleInto(a, a, 2)
	v := New(1, 4)
	AddRowVectorInto(a, a, v)
}
