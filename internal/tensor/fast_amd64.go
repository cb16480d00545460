package tensor

// AVX2 microkernel bindings (fast_amd64.s). Feature detection runs once at
// init via CPUID/XGETBV — no build flags, no external dependencies — and the
// kernels are only called when hasAVX2FMA reported support, so the package
// works on any amd64 CPU.

// gemmAccF64AVX2 is the fast tier's microkernel: 4 rows × 8 columns of
// fused VFMADD231PD accumulators, masked loads/stores for ragged edges.
//
//go:noescape
func gemmAccF64AVX2(c, a, b *float64, m, k, n, ars, acs int)

// nzRowAVX is the exact tier's row kernel: for one row val of the left
// operand, dst[j] = (Σ_t val[t]·b[off[t]+j]) + bias[j] over j in [0, n), bit
// for bit what the Go loops of exactProductsGo and mulABt produce
// (nz_amd64.s says how). Its callers pass the whole row with dense offsets,
// off[t] = t·(row width of b). It needs nnz >= 1, n a positive multiple of
// 4 and operands long enough for those indices — nothing is checked on the
// far side of the call. bias may be nil, or dst itself.
//
//go:noescape
func nzRowAVX(dst, b, bias, val *float64, off *int, nnz, n int)

// nzNarrowAVX is the exact tier's kernel for outputs narrower than 8
// columns: dst[i·n+j] = (Σ_t a[i·ars+t·acs]·b[t·n+j]) + bias[i·brs+j], bit
// for bit what exactProductsGo produces, four rows at a time. It needs
// m, k >= 1, 1 <= n <= 7, a non-nil bias (dst itself when brs = n) and
// operands long enough for those indices; nothing is checked.
//
//go:noescape
func nzNarrowAVX(dst, a, b, bias *float64, m, k, n, ars, acs, brs int)

// hasAVX2FMA reports CPU + OS support for the AVX2/FMA microkernels. The
// exact tier's kernels need only AVX2 of it.
func hasAVX2FMA() bool

var useAsm = hasAVX2FMA()
