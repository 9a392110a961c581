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

// Lane j of iota8 holds j: compared against a broadcast inL it gives the mask
// of the lanes a row of inL floats fills.
DATA iota8<>+0(SB)/4, $0
DATA iota8<>+4(SB)/4, $1
DATA iota8<>+8(SB)/4, $2
DATA iota8<>+12(SB)/4, $3
DATA iota8<>+16(SB)/4, $4
DATA iota8<>+20(SB)/4, $5
DATA iota8<>+24(SB)/4, $6
DATA iota8<>+28(SB)/4, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $32

// func conv3AVX2(tab *float32, pos *int32, x, y *float32, inL, width, n int, relu bool)
//
// The single-input-channel k = 3 conv over n rows of inL ≤ 8 floats (x
// advances by inL, y by width, a multiple of 8). tab is four rows of width
// floats — row 0 the bias of output o, rows 1..3 its taps — and pos[o] is
// the input index output o's first tap reads:
//
//	y[o] = act(((tab[o] + tab[width+o]·x[pos[o]]) + tab[2·width+o]·x[pos[o]+1]) + tab[3·width+o]·x[pos[o]+2])
//
// One lane owns one output and does what the scalar loop does for it: start
// at the bias, then a separate VMULPS and VADDPS per tap, taps ascending, no
// FMA; ReLU is VMAXPS with zero as the first source (matvecAVX2's rule). A
// row is loaded once with VMASKMOVPS, which touches no byte past x[inL-1],
// and each tap's inputs are gathered from that register with VPERMPS.
//
// Register use: SI tab, DX pos, R8 x row, DI y row, CX inL, R9 width, R11
// rows left, R12 relu, BX output offset, AX tap cursor; Y0-Y2 input indices
// of taps 0-2, Y3 accumulator, Y4-Y6 gathered inputs and products, Y12 all
// ones (-1 per lane), Y13 load mask, Y14 input row, Y15 zero.
TEXT ·conv3AVX2(SB), NOSPLIT, $0-57
	MOVQ    tab+0(FP), SI
	MOVQ    pos+8(FP), DX
	MOVQ    x+16(FP), R8
	MOVQ    y+24(FP), DI
	MOVQ    inL+32(FP), CX
	MOVQ    width+40(FP), R9
	MOVQ    n+48(FP), R11
	MOVBQZX relu+56(FP), R12
	VXORPS  Y15, Y15, Y15
	VPCMPEQD Y12, Y12, Y12
	VMOVQ   CX, X13
	VPBROADCASTD X13, Y13
	VPCMPGTD iota8<>(SB), Y13, Y13
	TESTQ   R11, R11
	JLE     cdone

crow:
	VMASKMOVPS (R8), Y13, Y14
	XORQ BX, BX

cblock:
	VMOVDQU (DX)(BX*4), Y0
	VPSUBD  Y12, Y0, Y1
	VPSUBD  Y12, Y1, Y2
	LEAQ    (SI)(BX*4), AX
	VMOVUPS (AX), Y3
	VPERMPS Y14, Y0, Y4
	LEAQ    (AX)(R9*4), AX
	VMULPS  (AX), Y4, Y4
	VADDPS  Y4, Y3, Y3
	VPERMPS Y14, Y1, Y5
	LEAQ    (AX)(R9*4), AX
	VMULPS  (AX), Y5, Y5
	VADDPS  Y5, Y3, Y3
	VPERMPS Y14, Y2, Y6
	LEAQ    (AX)(R9*4), AX
	VMULPS  (AX), Y6, Y6
	VADDPS  Y6, Y3, Y3
	TESTQ   R12, R12
	JZ      cstore
	VMAXPS  Y3, Y15, Y3

cstore:
	VMOVUPS Y3, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, R9
	JL      cblock

	LEAQ (R8)(CX*4), R8
	LEAQ (DI)(R9*4), DI
	DECQ R11
	JNZ  crow

cdone:
	VZEROUPPER
	RET
