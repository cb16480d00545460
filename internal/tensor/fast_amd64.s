#include "textflag.h"

// Fast-tier AVX2 microkernel. It computes the strided accumulating gemm
// c[i*n+j] += Σ_t a[i*ars+t*acs]·b[t*n+j] (t ascending, one accumulator per
// element) over a 4-row × 8-column register block, with masked loads and
// stores handling ragged edges so no shape restrictions leak to callers.
// fast_kernel.go defines the reference semantics it must match bitwise: each
// multiply-add is fused (VFMADD231PD ≡ math.FMA). It declares an 8-byte frame
// so the assembler preserves the caller's frame pointer around its use of BP.

// maskF64 provides VMASKMOVPD masks for 0..4 active float64 lanes.
DATA maskF64<>+0x00(SB)/8, $0x0000000000000000
DATA maskF64<>+0x08(SB)/8, $0x0000000000000000
DATA maskF64<>+0x10(SB)/8, $0x0000000000000000
DATA maskF64<>+0x18(SB)/8, $0x0000000000000000
DATA maskF64<>+0x20(SB)/8, $0xffffffffffffffff
DATA maskF64<>+0x28(SB)/8, $0x0000000000000000
DATA maskF64<>+0x30(SB)/8, $0x0000000000000000
DATA maskF64<>+0x38(SB)/8, $0x0000000000000000
DATA maskF64<>+0x40(SB)/8, $0xffffffffffffffff
DATA maskF64<>+0x48(SB)/8, $0xffffffffffffffff
DATA maskF64<>+0x50(SB)/8, $0x0000000000000000
DATA maskF64<>+0x58(SB)/8, $0x0000000000000000
DATA maskF64<>+0x60(SB)/8, $0xffffffffffffffff
DATA maskF64<>+0x68(SB)/8, $0xffffffffffffffff
DATA maskF64<>+0x70(SB)/8, $0xffffffffffffffff
DATA maskF64<>+0x78(SB)/8, $0x0000000000000000
DATA maskF64<>+0x80(SB)/8, $0xffffffffffffffff
DATA maskF64<>+0x88(SB)/8, $0xffffffffffffffff
DATA maskF64<>+0x90(SB)/8, $0xffffffffffffffff
DATA maskF64<>+0x98(SB)/8, $0xffffffffffffffff
GLOBL maskF64<>(SB), RODATA|NOPTR, $160

// func gemmAccF64AVX2(c, a, b *float64, m, k, n, ars, acs int)
// Microkernel: 4 rows x 8 cols (two masked ymm quads per row).
TEXT ·gemmAccF64AVX2(SB), NOSPLIT, $8-64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ ars+48(FP), R11
	MOVQ acs+56(FP), R12
	SHLQ $3, R11             // ars bytes
	SHLQ $3, R12             // acs bytes
	MOVQ R10, R13
	SHLQ $3, R13             // n bytes (b row stride, c row stride)

	// i loop: 4 rows at a time
	XORQ AX, AX              // i = 0
iloop4:
	MOVQ R8, BX
	SUBQ AX, BX
	CMPQ BX, $4
	JL   iloop1check

	// j loop over cols in blocks of 8 (two quads, each masked)
	XORQ CX, CX              // j = 0
jloop:
	CMPQ CX, R10
	JGE  inext4

	// q = min(n-j, 4), r = min(n-j-4, 4) (clamped >= 0): masks Y11, Y12
	MOVQ R10, R14
	SUBQ CX, R14             // rem = n - j
	MOVQ R14, R15
	CMPQ R15, $4
	JLE  qok
	MOVQ $4, R15
qok:                         // R15 = q in 0..4
	MOVQ R14, BP
	SUBQ $4, BP
	JGE  rpos
	XORQ BP, BP
rpos:
	CMPQ BP, $4
	JLE  rok
	MOVQ $4, BP
rok:                         // BP = r in 0..4
	MOVQ R15, R14
	SHLQ $5, R14
	LEAQ maskF64<>(SB), BX
	VMOVDQU (BX)(R14*1), Y11 // mask for first quad
	MOVQ BP, R14
	SHLQ $5, R14
	VMOVDQU (BX)(R14*1), Y12 // mask for second quad

	// c pointers for 4 rows at column j
	MOVQ AX, R14
	IMULQ R13, R14
	LEAQ (DI)(R14*1), R14
	LEAQ (R14)(CX*8), R14    // &c[i*n+j] (row 0)

	// load accumulators (masked)
	MOVQ R14, BX
	VMASKMOVPD (BX), Y11, Y0
	VMASKMOVPD 32(BX), Y12, Y1
	ADDQ R13, BX
	VMASKMOVPD (BX), Y11, Y2
	VMASKMOVPD 32(BX), Y12, Y3
	ADDQ R13, BX
	VMASKMOVPD (BX), Y11, Y4
	VMASKMOVPD 32(BX), Y12, Y5
	ADDQ R13, BX
	VMASKMOVPD (BX), Y11, Y6
	VMASKMOVPD 32(BX), Y12, Y7

	// a pointers for 4 rows: R15 = &a[i*ars], rows advance by ars
	MOVQ AX, R15
	IMULQ R11, R15
	LEAQ (SI)(R15*1), R15    // row i+0
	// b pointer at row 0, column j
	LEAQ (DX)(CX*8), BP      // &b[0*n+j]

	MOVQ R9, BX              // t counter
tloop:
	VMASKMOVPD (BP), Y11, Y8
	VMASKMOVPD 32(BP), Y12, Y9
	MOVQ R15, R14            // a row ptr
	VBROADCASTSD (R14), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	ADDQ R11, R14
	VBROADCASTSD (R14), Y10
	VFMADD231PD Y8, Y10, Y2
	VFMADD231PD Y9, Y10, Y3
	ADDQ R11, R14
	VBROADCASTSD (R14), Y10
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	ADDQ R11, R14
	VBROADCASTSD (R14), Y10
	VFMADD231PD Y8, Y10, Y6
	VFMADD231PD Y9, Y10, Y7
	ADDQ R12, R15            // a advance t
	ADDQ R13, BP             // b advance row
	DECQ BX
	JNZ  tloop

	// store accumulators
	MOVQ AX, R14
	IMULQ R13, R14
	LEAQ (DI)(R14*1), R14
	LEAQ (R14)(CX*8), R14
	MOVQ R14, BX
	VMASKMOVPD Y0, Y11, (BX)
	VMASKMOVPD Y1, Y12, 32(BX)
	ADDQ R13, BX
	VMASKMOVPD Y2, Y11, (BX)
	VMASKMOVPD Y3, Y12, 32(BX)
	ADDQ R13, BX
	VMASKMOVPD Y4, Y11, (BX)
	VMASKMOVPD Y5, Y12, 32(BX)
	ADDQ R13, BX
	VMASKMOVPD Y6, Y11, (BX)
	VMASKMOVPD Y7, Y12, 32(BX)

	ADDQ $8, CX
	JMP  jloop

inext4:
	ADDQ $4, AX
	JMP  iloop4

	// single-row remainder
iloop1check:
	CMPQ AX, R8
	JGE  done
	XORQ CX, CX
jloop1:
	CMPQ CX, R10
	JGE  inext1
	MOVQ R10, R14
	SUBQ CX, R14
	MOVQ R14, R15
	CMPQ R15, $4
	JLE  qok1
	MOVQ $4, R15
qok1:
	MOVQ R14, BP
	SUBQ $4, BP
	JGE  rpos1
	XORQ BP, BP
rpos1:
	CMPQ BP, $4
	JLE  rok1
	MOVQ $4, BP
rok1:
	MOVQ R15, R14
	SHLQ $5, R14
	LEAQ maskF64<>(SB), BX
	VMOVDQU (BX)(R14*1), Y11
	MOVQ BP, R14
	SHLQ $5, R14
	VMOVDQU (BX)(R14*1), Y12

	MOVQ AX, R14
	IMULQ R13, R14
	LEAQ (DI)(R14*1), R14
	LEAQ (R14)(CX*8), R14
	VMASKMOVPD (R14), Y11, Y0
	VMASKMOVPD 32(R14), Y12, Y1

	MOVQ AX, R15
	IMULQ R11, R15
	LEAQ (SI)(R15*1), R15
	LEAQ (DX)(CX*8), BP
	MOVQ R9, BX
tloop1:
	VMASKMOVPD (BP), Y11, Y8
	VMASKMOVPD 32(BP), Y12, Y9
	VBROADCASTSD (R15), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	ADDQ R12, R15
	ADDQ R13, BP
	DECQ BX
	JNZ  tloop1

	MOVQ AX, R14
	IMULQ R13, R14
	LEAQ (DI)(R14*1), R14
	LEAQ (R14)(CX*8), R14
	VMASKMOVPD Y0, Y11, (R14)
	VMASKMOVPD Y1, Y12, 32(R14)

	ADDQ $8, CX
	JMP  jloop1
inext1:
	INCQ AX
	JMP  iloop1check

done:
	VZEROUPPER
	RET

// func hasAVX2FMA() bool
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $(1<<12), BX        // FMA
	JZ   no
	MOVL CX, BX
	ANDL $(1<<27), BX        // OSXSAVE
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $6, AX              // XMM+YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX         // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
