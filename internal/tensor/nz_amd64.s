#include "textflag.h"

// Exact-tier row kernel. For one left-operand row val it computes
//
//	dst[j] = (Σ_t val[t]·b[off[t]+j]) + bias[j]      j in [0, n)
//
// with the ymm lanes laid across j, so every dst[j] sees the op sequence of
// the scalar loops in inplace.go and nothing else: a zeroed accumulator, t
// ascending, each product rounded (VMULPD) before it is added (VADDPD,
// accumulator as first source), the bias added after the last term and only
// when bias is non-nil. No fused multiply-add anywhere: one rounding instead
// of two changes the low bits the golden file pins.
//
// Columns go in passes of 12, 8, 4 and 1 accumulators (48, 32, 16, 4
// columns), widest first, so the student's 48- and 32-wide layers run with
// eight or more independent add chains. Its callers pass dense offsets,
// off[t] = t·(row width of b). The caller guarantees nnz >= 1, n a
// positive multiple of 4, and b, bias and dst long enough for every index
// above. bias may be dst itself: a pass loads its bias before it stores.

// NZ_TERM adds val[t]·b[off[t]+j..j+3] (BX = &b[off[t]+j0], Y12 = val[t]
// broadcast) into one accumulator; tmp holds the rounded product.
#define NZ_TERM(disp, acc, tmp) \
	VMULPD disp(BX), Y12, tmp; \
	VADDPD tmp, acc, acc

// NZ_NEXT_T loads term t: BX = &b[off[t]] at the pass's first column,
// Y12 = val[t] in every lane.
#define NZ_NEXT_T \
	MOVQ (R9)(CX*8), BX; \
	LEAQ (SI)(BX*8), BX; \
	VBROADCASTSD (R8)(CX*8), Y12

// NZ_ADVANCE moves dst, b and bias past a finished pass of the given width.
// DX advances even when bias is nil; R12 keeps the nil test.
#define NZ_ADVANCE(bytes, cols) \
	ADDQ $bytes, DI; \
	ADDQ $bytes, SI; \
	ADDQ $bytes, DX; \
	SUBQ $cols, R11

// func nzRowAVX(dst, b, bias, val *float64, off *int, nnz, n int)
TEXT ·nzRowAVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ bias+16(FP), DX
	MOVQ val+24(FP), R8
	MOVQ off+32(FP), R9
	MOVQ nnz+40(FP), R10
	MOVQ n+48(FP), R11       // columns left
	MOVQ DX, R12             // nil iff there is no bias

pass12:
	CMPQ R11, $48
	JL   pass8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ CX, CX              // t
term12:
	NZ_NEXT_T
	NZ_TERM(0, Y0, Y13)
	NZ_TERM(32, Y1, Y14)
	NZ_TERM(64, Y2, Y15)
	NZ_TERM(96, Y3, Y13)
	NZ_TERM(128, Y4, Y14)
	NZ_TERM(160, Y5, Y15)
	NZ_TERM(192, Y6, Y13)
	NZ_TERM(224, Y7, Y14)
	NZ_TERM(256, Y8, Y15)
	NZ_TERM(288, Y9, Y13)
	NZ_TERM(320, Y10, Y14)
	NZ_TERM(352, Y11, Y15)
	INCQ CX
	CMPQ CX, R10
	JL   term12
	TESTQ R12, R12
	JZ   store12
	VADDPD 0(DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD 64(DX), Y2, Y2
	VADDPD 96(DX), Y3, Y3
	VADDPD 128(DX), Y4, Y4
	VADDPD 160(DX), Y5, Y5
	VADDPD 192(DX), Y6, Y6
	VADDPD 224(DX), Y7, Y7
	VADDPD 256(DX), Y8, Y8
	VADDPD 288(DX), Y9, Y9
	VADDPD 320(DX), Y10, Y10
	VADDPD 352(DX), Y11, Y11
store12:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	VMOVUPD Y10, 320(DI)
	VMOVUPD Y11, 352(DI)
	NZ_ADVANCE(384, 48)
	JMP  pass12

pass8:
	CMPQ R11, $32
	JL   pass4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ CX, CX
term8:
	NZ_NEXT_T
	NZ_TERM(0, Y0, Y13)
	NZ_TERM(32, Y1, Y14)
	NZ_TERM(64, Y2, Y15)
	NZ_TERM(96, Y3, Y13)
	NZ_TERM(128, Y4, Y14)
	NZ_TERM(160, Y5, Y15)
	NZ_TERM(192, Y6, Y13)
	NZ_TERM(224, Y7, Y14)
	INCQ CX
	CMPQ CX, R10
	JL   term8
	TESTQ R12, R12
	JZ   store8
	VADDPD 0(DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD 64(DX), Y2, Y2
	VADDPD 96(DX), Y3, Y3
	VADDPD 128(DX), Y4, Y4
	VADDPD 160(DX), Y5, Y5
	VADDPD 192(DX), Y6, Y6
	VADDPD 224(DX), Y7, Y7
store8:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	NZ_ADVANCE(256, 32)

pass4:
	CMPQ R11, $16
	JL   pass1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ CX, CX
term4:
	NZ_NEXT_T
	NZ_TERM(0, Y0, Y13)
	NZ_TERM(32, Y1, Y14)
	NZ_TERM(64, Y2, Y15)
	NZ_TERM(96, Y3, Y13)
	INCQ CX
	CMPQ CX, R10
	JL   term4
	TESTQ R12, R12
	JZ   store4
	VADDPD 0(DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD 64(DX), Y2, Y2
	VADDPD 96(DX), Y3, Y3
store4:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	NZ_ADVANCE(128, 16)

pass1:
	CMPQ R11, $4
	JL   done
	VXORPD Y0, Y0, Y0
	XORQ CX, CX
term1:
	NZ_NEXT_T
	NZ_TERM(0, Y0, Y13)
	INCQ CX
	CMPQ CX, R10
	JL   term1
	TESTQ R12, R12
	JZ   store1
	VADDPD 0(DX), Y0, Y0
store1:
	VMOVUPD Y0, 0(DI)
	NZ_ADVANCE(32, 4)
	JMP  pass1

done:
	VZEROUPPER
	RET

// Exact-tier narrow kernel, for outputs under 8 columns (the student's class
// and box heads). It computes
//
//	dst[i·n+j] = (Σ_t a[i·ars+t·acs]·b[t·n+j]) + bias[i·brs+j]
//
// for i in [0, m), j in [0, n), t ascending in [0, k), with the op sequence
// of nzRowAVX per element: a zeroed accumulator, VMULPD then VADDPD with the
// accumulator as first source, the bias last. A row's n columns fill two
// ymm vectors, lanes past n masked off on load and store; four rows are
// blocked together so that one term feeds eight independent add chains,
// and the 1–3 rows left over go one at a time. The caller guarantees
// m, k >= 1, 1 <= n <= 7, a non-nil bias and operands long enough for every
// index above. bias may be dst itself with brs = n: a row loads its bias
// before it stores.

// nzLanes holds each ymm lane's column index, 0–7, to compare n against.
DATA nzLanes<>+0x00(SB)/8, $0
DATA nzLanes<>+0x08(SB)/8, $1
DATA nzLanes<>+0x10(SB)/8, $2
DATA nzLanes<>+0x18(SB)/8, $3
DATA nzLanes<>+0x20(SB)/8, $4
DATA nzLanes<>+0x28(SB)/8, $5
DATA nzLanes<>+0x30(SB)/8, $6
DATA nzLanes<>+0x38(SB)/8, $7
GLOBL nzLanes<>(SB), RODATA|NOPTR, $64

// NARROW_TERM adds the broadcast a-value in Y10 times b's two vectors
// (Y8, Y9) into one row's accumulator pair.
#define NARROW_TERM(lo, hi) \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, lo, lo; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y12, hi, hi

// NARROW_STORE adds a row's bias (its two vectors at blo, bhi) to its
// accumulator pair and stores the pair at dlo, dhi, all through the lane
// masks Y14 and Y15.
#define NARROW_STORE(blo, bhi, dlo, dhi, lo, hi) \
	VMASKMOVPD blo, Y14, Y11; \
	VADDPD Y11, lo, lo; \
	VMASKMOVPD bhi, Y15, Y12; \
	VADDPD Y12, hi, hi; \
	VMASKMOVPD lo, Y14, dlo; \
	VMASKMOVPD hi, Y15, dhi

// func nzNarrowAVX(dst, a, b, bias *float64, m, k, n, ars, acs, brs int)
TEXT ·nzNarrowAVX(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bias+24(FP), R8
	MOVQ m+32(FP), R9        // rows left
	MOVQ n+48(FP), R11
	MOVQ ars+56(FP), R12
	MOVQ acs+64(FP), R13
	MOVQ brs+72(FP), R14
	MOVQ R11, X13
	VPBROADCASTQ X13, Y13
	VPCMPGTQ nzLanes<>+0(SB), Y13, Y14  // lane j of columns 0–3 live iff j < n
	VPCMPGTQ nzLanes<>+32(SB), Y13, Y15 // and of columns 4–7
	SHLQ $3, R11             // n bytes: the row stride of b and of dst
	SHLQ $3, R12             // ars bytes
	SHLQ $3, R13             // acs bytes
	SHLQ $3, R14             // brs bytes

rows4:
	CMPQ R9, $4
	JL   rows1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX              // &a[i·ars + t·acs], rows i and i+1
	LEAQ (SI)(R12*2), BX     // the same for rows i+2 and i+3
	MOVQ DX, CX              // &b[t·n]
	MOVQ k+40(FP), R10       // terms left
term4:
	VMASKMOVPD (CX), Y14, Y8
	VMASKMOVPD 32(CX), Y15, Y9
	VBROADCASTSD (AX), Y10
	NARROW_TERM(Y0, Y1)
	VBROADCASTSD (AX)(R12*1), Y10
	NARROW_TERM(Y2, Y3)
	VBROADCASTSD (BX), Y10
	NARROW_TERM(Y4, Y5)
	VBROADCASTSD (BX)(R12*1), Y10
	NARROW_TERM(Y6, Y7)
	ADDQ R13, AX
	ADDQ R13, BX
	ADDQ R11, CX
	DECQ R10
	JNZ  term4
	LEAQ (DI)(R11*2), AX     // dst rows i+2, i+3
	LEAQ (R8)(R14*2), BX     // bias rows i+2, i+3
	NARROW_STORE((R8), 32(R8), (DI), 32(DI), Y0, Y1)
	NARROW_STORE((R8)(R14*1), 32(R8)(R14*1), (DI)(R11*1), 32(DI)(R11*1), Y2, Y3)
	NARROW_STORE((BX), 32(BX), (AX), 32(AX), Y4, Y5)
	NARROW_STORE((BX)(R14*1), 32(BX)(R14*1), (AX)(R11*1), 32(AX)(R11*1), Y6, Y7)
	LEAQ (DI)(R11*4), DI
	LEAQ (SI)(R12*4), SI
	LEAQ (R8)(R14*4), R8
	SUBQ $4, R9
	JMP  rows4

rows1:
	TESTQ R9, R9
	JZ   narrowdone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, AX
	MOVQ DX, CX
	MOVQ k+40(FP), R10
term1:
	VMASKMOVPD (CX), Y14, Y8
	VMASKMOVPD 32(CX), Y15, Y9
	VBROADCASTSD (AX), Y10
	NARROW_TERM(Y0, Y1)
	ADDQ R13, AX
	ADDQ R11, CX
	DECQ R10
	JNZ  term1
	NARROW_STORE((R8), 32(R8), (DI), 32(DI), Y0, Y1)
	ADDQ R11, DI
	ADDQ R12, SI
	ADDQ R14, R8
	DECQ R9
	JMP  rows1

narrowdone:
	VZEROUPPER
	RET
