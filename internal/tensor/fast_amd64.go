package tensor

// AVX2 microkernel bindings (fast_amd64.s). Feature detection runs once at
// init via CPUID/XGETBV — no build flags, no external dependencies — and the
// kernels are only called when hasAVX2FMA reported support, so the package
// works on any amd64 CPU.

// gemmAccF64AVX2 is the float64-lane microkernel: 4 rows × 8 columns of
// fused VFMADD231PD accumulators, masked loads/stores for ragged edges.
//
//go:noescape
func gemmAccF64AVX2(c, a, b *float64, m, k, n, ars, acs int)

// gemmAccF32AVX2 is the float32-lane microkernel: 4 rows × 8 columns with
// separate VMULPS/VADDPS roundings, masked loads/stores for ragged edges.
//
//go:noescape
func gemmAccF32AVX2(c, a, b *float32, m, k, n, ars, acs int)

// nzRowAVX is the exact tier's row kernel: for one compacted row,
// dst[j] = (Σ_t val[t]·b[off[t]+j]) + bias[j] over j in [0, n), bit for bit
// what the scalar loops of mulIntoNZ produce (nz_amd64.s says how). It needs
// nnz >= 1, n a positive multiple of 4 and operands long enough for those
// indices — nothing is checked on the far side of the call. bias may be nil,
// or dst itself.
//
//go:noescape
func nzRowAVX(dst, b, bias, val *float64, off *int, nnz, n int)

// hasAVX2FMA reports CPU + OS support for the AVX2/FMA microkernels (a
// superset of the AVX that nzRowAVX needs).
func hasAVX2FMA() bool

var useAsm = hasAVX2FMA()
