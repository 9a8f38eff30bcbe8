//go:build amd64

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Registers of elineStep8:
//
//	SI, DI    ego and ctx tables        Y0:Y1  ego_i   Y2:Y3  ctx_i
//	R8, R9    i and j                   X8     9       X9     -9
//	R10, R11  zs cursor and end         X10    4096/18 X11    0.5
//	R12, R13  coefficient cursors       X12    1       X13    -lr
//	BX        &sigmoidTable             Y14:Y15 gradient accumulator
//	AX, CX, DX, Y4-Y7 scratch; while rows move, CX is the coefficient
//	cursor and AX holds i's row offset

// DOT8 leaves dot8(src, row) in the low lane of X4, where lo:hi holds
// src and rlo, rhi address the row's halves. VHADDPD pairs the products
// (p0+p1, p4+p5, p2+p3, p6+p7), the 128-bit add forms (p0+p1)+(p2+p3) and
// (p4+p5)+(p6+p7), and the last VHADDPD adds those: dot8's tree.
#define DOT8(rlo, rhi, lo, hi) \
	VMULPD  rlo, lo, Y4; \
	VMULPD  rhi, hi, Y5; \
	VHADDPD Y5, Y4, Y4; \
	VEXTRACTF128 $1, Y4, X5; \
	VADDPD  X5, X4, X4; \
	VHADDPD X4, X4, X4

// SIGMOID leaves sigmoid(X4) in the low lane of X6, without a branch:
// the table index is computed as the Go code computes it and clamped to
// [0, sigmoidSize = 4096] by CMOV, so any x loads a table entry, and two
// compare masks (predicates 0x1d GE_OQ and 0x12 LE_OQ) then give exactly
// 1 for x >= 9 and exactly 0 for x <= -9.
#define SIGMOID \
	VADDSD      X8, X4, X5; \
	VMULSD      X10, X5, X5; \
	VADDSD      X11, X5, X5; \
	VCVTTSD2SIQ X5, AX; \
	XORL        CX, CX; \
	TESTQ       AX, AX; \
	CMOVQLT     CX, AX; \
	MOVL        $4096, CX; \
	CMPQ        AX, CX; \
	CMOVQGT     CX, AX; \
	VMOVSD      (BX)(AX*8), X6; \
	VCMPSD      $0x1d, X8, X4, X7; \
	VCMPSD      $0x12, X9, X4, X5; \
	VORPD       X5, X7, X5; \
	VANDNPD     X6, X5, X6; \
	VANDPD      X12, X7, X7; \
	VORPD       X7, X6, X6

// COEF stores at (dst) the step coefficient -lr·(sigmoid(dot) - 1) of a
// positive pair, and NEGCOEF the coefficient -lr·sigmoid(dot) of a
// negative one; both decline on a NaN dot.
#define COEF(dst) \
	VUCOMISD X4, X4; \
	JPS      decline; \
	SIGMOID; \
	VSUBSD   X12, X6, X6; \
	VMULSD   X13, X6, X6; \
	VMOVSD   X6, dst

#define NEGCOEF(dst) \
	VUCOMISD X4, X4; \
	JPS      decline; \
	SIGMOID; \
	VMULSD   X13, X6, X6; \
	VMOVSD   X6, dst

// UPDATE moves the row at rlo, rhi by coefficient Y6 against source
// lo:hi and adds coefficient × the row's old value to Y14:Y15, the
// element order of sgdUpdate8's loop.
#define UPDATE(rlo, rhi, lo, hi) \
	VMOVUPD rlo, Y4; \
	VMOVUPD rhi, Y5; \
	VMULPD  Y4, Y6, Y7; \
	VADDPD  Y7, Y14, Y14; \
	VMULPD  Y5, Y6, Y7; \
	VADDPD  Y7, Y15, Y15; \
	VMULPD  lo, Y6, Y7; \
	VADDPD  Y7, Y4, Y4; \
	VMULPD  hi, Y6, Y7; \
	VADDPD  Y7, Y5, Y5; \
	VMOVUPD Y4, rlo; \
	VMOVUPD Y5, rhi

// func elineStep8(ego, ctx []float64, i, j rfgraph.NodeID, zs []rfgraph.NodeID, nlr float64, gs []float64) bool
TEXT ·elineStep8(SB), NOSPLIT, $0-113
	MOVQ    ego_base+0(FP), SI
	MOVQ    ctx_base+24(FP), DI
	MOVLQSX i+48(FP), R8
	MOVLQSX j+52(FP), R9
	CMPQ    R8, R9
	JEQ     decline

	LEAQ   ·sigmoidConsts(SB), AX
	VMOVSD 0(AX), X8
	VMOVSD 8(AX), X9
	VMOVSD 16(AX), X10
	VMOVSD 24(AX), X11
	VMOVSD 32(AX), X12
	VMOVSD nlr+80(FP), X13
	LEAQ   ·sigmoidTable(SB), BX

	MOVQ    R8, AX
	SHLQ    $6, AX
	VMOVUPD 0(SI)(AX*1), Y0
	VMOVUPD 32(SI)(AX*1), Y1
	VMOVUPD 0(DI)(AX*1), Y2
	VMOVUPD 32(DI)(AX*1), Y3

	// Coefficients, nothing written yet: the first direction's in
	// gs[0..K], the second's in gs[K+1..2K+1], slot 1+k for zs[k].
	MOVQ zs_base+56(FP), R10
	MOVQ zs_len+64(FP), R11
	MOVQ gs_base+88(FP), R12
	LEAQ 8(R12)(R11*8), R13
	LEAQ (R10)(R11*4), R11

	MOVQ R9, DX
	SHLQ $6, DX
	DOT8(0(DI)(DX*1), 32(DI)(DX*1), Y0, Y1)
	COEF((R12))
	DOT8(0(SI)(DX*1), 32(SI)(DX*1), Y2, Y3)
	COEF((R13))

coefLoop:
	ADDQ    $8, R12
	ADDQ    $8, R13
	CMPQ    R10, R11
	JEQ     apply
	MOVLQSX (R10), DX
	ADDQ    $4, R10
	CMPQ    DX, R8
	JEQ     decline
	CMPQ    DX, R9
	JEQ     coefLoop
	SHLQ    $6, DX
	DOT8(0(DI)(DX*1), 32(DI)(DX*1), Y0, Y1)
	NEGCOEF((R12))
	DOT8(0(SI)(DX*1), 32(SI)(DX*1), Y2, Y3)
	NEGCOEF((R13))
	JMP     coefLoop

apply:
	// First direction: the context rows of j and zs against ego_i, then
	// ego_i += gradient.
	MOVQ   gs_base+88(FP), CX
	MOVQ   zs_base+56(FP), R10
	MOVQ   R9, DX
	SHLQ   $6, DX
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	VBROADCASTSD (CX), Y6
	UPDATE(0(DI)(DX*1), 32(DI)(DX*1), Y0, Y1)

rows1:
	ADDQ    $8, CX
	CMPQ    R10, R11
	JEQ     source1
	MOVLQSX (R10), DX
	ADDQ    $4, R10
	CMPQ    DX, R9
	JEQ     rows1
	SHLQ    $6, DX
	VBROADCASTSD (CX), Y6
	UPDATE(0(DI)(DX*1), 32(DI)(DX*1), Y0, Y1)
	JMP     rows1

source1:
	MOVQ    R8, AX
	SHLQ    $6, AX
	VADDPD  Y14, Y0, Y0
	VADDPD  Y15, Y1, Y1
	VMOVUPD Y0, 0(SI)(AX*1)
	VMOVUPD Y1, 32(SI)(AX*1)

	// Second direction: the ego rows of j and zs against ctx_i, with CX
	// at gs[K+1].
	MOVQ   zs_base+56(FP), R10
	MOVQ   R9, DX
	SHLQ   $6, DX
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	VBROADCASTSD (CX), Y6
	UPDATE(0(SI)(DX*1), 32(SI)(DX*1), Y2, Y3)

rows2:
	ADDQ    $8, CX
	CMPQ    R10, R11
	JEQ     source2
	MOVLQSX (R10), DX
	ADDQ    $4, R10
	CMPQ    DX, R9
	JEQ     rows2
	SHLQ    $6, DX
	VBROADCASTSD (CX), Y6
	UPDATE(0(SI)(DX*1), 32(SI)(DX*1), Y2, Y3)
	JMP     rows2

source2:
	VADDPD  Y14, Y2, Y2
	VADDPD  Y15, Y3, Y3
	VMOVUPD Y2, 0(DI)(AX*1)
	VMOVUPD Y3, 32(DI)(AX*1)
	VZEROUPPER
	MOVB    $1, ret+112(FP)
	RET

decline:
	VZEROUPPER
	MOVB $0, ret+112(FP)
	RET
