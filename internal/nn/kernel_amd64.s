#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7 EBX bit 5), the CPU has AVX
// and OSXSAVE (leaf 1 ECX bits 28, 27), and the OS saves the YMM halves on a
// context switch (XCR0 bits 1 and 2, read with XGETBV).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JL   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func matvecAVX2(wt, b, x, y *float32, in, lanes, ystride, n int, relu bool)
//
// For each of n rows (x advances by in floats, y by ystride floats) and each
// output o < lanes (a multiple of 8):
//
//	y[o] = act(b[o] + Σ_i wt[i*lanes+o]·x[i])
//
// One SIMD lane owns one output and accumulates in ascending i from +0 with a
// separate multiply and add, which is the portable matvec's order for its
// 4-row blocks, so every lane holds the portable kernel's bits. FMA would
// skip the product's rounding and is never used.
//
// Register use: SI wt, DX b, R8 x row, DI y row, CX in, R9 lanes, R10
// ystride, R11 rows left, R12 relu, BX output offset, AX weight cursor,
// R13 input index; Y0-Y3 accumulators, Y4 broadcast x[i], Y5-Y8 products,
// Y15 zero.
TEXT ·matvecAVX2(SB), NOSPLIT, $0-65
	MOVQ    wt+0(FP), SI
	MOVQ    b+8(FP), DX
	MOVQ    x+16(FP), R8
	MOVQ    y+24(FP), DI
	MOVQ    in+32(FP), CX
	MOVQ    lanes+40(FP), R9
	MOVQ    ystride+48(FP), R10
	MOVQ    n+56(FP), R11
	MOVBQZX relu+64(FP), R12
	VXORPS  Y15, Y15, Y15
	TESTQ   R11, R11
	JLE     done

row:
	XORQ BX, BX

block32:
	MOVQ R9, AX
	SUBQ BX, AX
	CMPQ AX, $32
	JL   block8
	LEAQ (SI)(BX*4), AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ R13, R13

loop32:
	VBROADCASTSS (R8)(R13*4), Y4
	VMULPS (AX), Y4, Y5
	VMULPS 32(AX), Y4, Y6
	VMULPS 64(AX), Y4, Y7
	VMULPS 96(AX), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	LEAQ (AX)(R9*4), AX
	INCQ R13
	CMPQ R13, CX
	JL   loop32

	VADDPS (DX)(BX*4), Y0, Y0
	VADDPS 32(DX)(BX*4), Y1, Y1
	VADDPS 64(DX)(BX*4), Y2, Y2
	VADDPS 96(DX)(BX*4), Y3, Y3
	TESTQ R12, R12
	JZ   store32
	// max(0, v) with zero as the first source: a NaN or -0 in v comes
	// back unchanged, as in `if v < 0 { v = 0 }`.
	VMAXPS Y0, Y15, Y0
	VMAXPS Y1, Y15, Y1
	VMAXPS Y2, Y15, Y2
	VMAXPS Y3, Y15, Y3

store32:
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	VMOVUPS Y2, 64(DI)(BX*4)
	VMOVUPS Y3, 96(DI)(BX*4)
	ADDQ $32, BX
	JMP  block32

block8:
	CMPQ BX, R9
	JGE  nextrow
	LEAQ (SI)(BX*4), AX
	VXORPS Y0, Y0, Y0
	XORQ R13, R13

loop8:
	VBROADCASTSS (R8)(R13*4), Y4
	VMULPS (AX), Y4, Y5
	VADDPS Y5, Y0, Y0
	LEAQ (AX)(R9*4), AX
	INCQ R13
	CMPQ R13, CX
	JL   loop8

	VADDPS (DX)(BX*4), Y0, Y0
	TESTQ R12, R12
	JZ   store8
	VMAXPS Y0, Y15, Y0

store8:
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	JMP  block8

nextrow:
	LEAQ (R8)(CX*4), R8
	LEAQ (DI)(R10*4), DI
	DECQ R11
	JNZ  row

done:
	VZEROUPPER
	RET
