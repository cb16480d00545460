package tensor

import "math"

// Strided accumulating gemm primitive of the fast tier. It computes
//
//	c[i*n+j] += Σ_t a[i*ars + t*acs] · b[t*n+j]   (t ascending)
//
// with one accumulator per output element, which lets a single kernel cover
// every fast matmul: plain A·B (ars=k, acs=1), Aᵀ·B (ars=1, acs=a.Cols) and
// — after staging bᵀ — A·Bᵀ. The portable kernel here defines the tier's
// bit-exact semantics; the AVX2 microkernel (fast_amd64.s) implements the
// same semantics lane for lane, which the differential tests in fast_test.go
// verify bitwise across random shapes and strides.

// gemmAccF64 dispatches the gemm. The multiply-add is fused
// (math.FMA / VFMADD231PD): one rounding per term.
//
//shoggoth:hotpath
func gemmAccF64(c, a, b []float64, m, k, n, ars, acs int) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if useAsm {
		gemmAccF64AVX2(&c[0], &a[0], &b[0], m, k, n, ars, acs)
		return
	}
	gemmAccF64Generic(c, a, b, m, k, n, ars, acs)
}

// gemmAccF64Generic is the portable float64 kernel: single fused accumulator
// per element, ascending t. math.FMA guarantees the fused rounding on every
// architecture, so the generic and AVX2 kernels are bit-equal.
func gemmAccF64Generic(c, a, b []float64, m, k, n, ars, acs int) {
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			s := crow[j]
			ai := i * ars
			bo := j
			for t := 0; t < k; t++ {
				s = math.FMA(a[ai], b[bo], s)
				ai += acs
				bo += n
			}
			crow[j] = s
		}
	}
}
