//go:build tensordebug

package tensor

import "testing"

// The fast kernels inherit the exact tier's aliasing contract: matrix
// products must not write into their own sources. These assertions only
// exist under -tags tensordebug (CI runs the tensor tests with it).

func mustPanicFast(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: aliased destination did not panic under tensordebug", op)
		}
	}()
	f()
}

func TestFastAliasAssertions(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	bias := New(1, 4)
	var ws FastScratch
	mustPanicFast(t, "FastMulBiasInto dst==a", func() { FastMulBiasInto(a, a, b, bias, LaneF64, &ws) })
	mustPanicFast(t, "FastMulBiasInto dst==b", func() { FastMulBiasInto(b, a, b, bias, LaneF64, &ws) })
	mustPanicFast(t, "FastMulABt dst==b", func() { FastMulABt(b, a, b, LaneF64, &ws) })
	mustPanicFast(t, "FastMulAtBAdd dst==a", func() { FastMulAtBAdd(a, a, b, LaneF64, &ws) })
	// Overlapping views, not just identical matrices.
	view := &Matrix{Rows: 2, Cols: 4, Data: a.Data[4:12]}
	mustPanicFast(t, "FastMulBiasInto dst overlaps a", func() {
		FastMulBiasInto(view, &Matrix{Rows: 2, Cols: 2, Data: a.Data[:4]}, &Matrix{Rows: 2, Cols: 4, Data: a.Data[8:]}, bias, LaneF64, &ws)
	})
}
