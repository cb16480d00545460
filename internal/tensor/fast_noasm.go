//go:build !amd64

package tensor

// Portable fallback: the generic kernels in fast_kernel.go are the only
// implementation off amd64. The stubs exist so the dispatchers compile; they
// are unreachable while useAsm is false.

var useAsm = false

func gemmAccF64AVX2(c, a, b *float64, m, k, n, ars, acs int) {
	panic("tensor: gemmAccF64AVX2 called without AVX2 support")
}

func gemmAccF32AVX2(c, a, b *float32, m, k, n, ars, acs int) {
	panic("tensor: gemmAccF32AVX2 called without AVX2 support")
}

func nzRowAVX(dst, b, bias, val *float64, off *int, nnz, n int) {
	panic("tensor: nzRowAVX called without AVX support")
}
