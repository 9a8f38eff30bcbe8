//go:build amd64

#include "go_asm.h"
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

// Registers of elineDraw:
//
//	R8        SplitMix64 state        BX        tab
//	DI        buf cursor              SI        samples left
//	R9        edges                   R13       negative nodes
//	R10, R11  edge thresh and alias   R14, R15  negative thresh and alias
//	R12       negatives left          X0        dropout   X1  2^-53
//	AX, CX, DX, X2 scratch

// SPLITMIX advances the state in R8 and leaves its output in AX, as
// sampling.Fast.Uint64 does; it clobbers CX.
#define SPLITMIX \
	MOVQ  $0x9e3779b97f4a7c15, CX; \
	ADDQ  CX, R8; \
	MOVQ  R8, AX; \
	MOVQ  AX, CX; \
	SHRQ  $30, CX; \
	XORQ  CX, AX; \
	MOVQ  $0xbf58476d1ce4e5b9, CX; \
	IMULQ CX, AX; \
	MOVQ  AX, CX; \
	SHRQ  $27, CX; \
	XORQ  CX, AX; \
	MOVQ  $0x94d049bb133111eb, CX; \
	IMULQ CX, AX; \
	MOVQ  AX, CX; \
	SHRQ  $31, CX; \
	XORQ  CX, AX

// DRAW leaves in DX the outcome Alias.DrawFast picks with the random word
// in AX, over thresh and alias columns at thr and alr of n slots: slot
// (hi32(u)·n)>>32, kept when lo32(u) < thresh, else its alias, chosen by
// CMOV. It clobbers AX and CX.
#define DRAW(thr, alr, n) \
	MOVQ    AX, DX; \
	SHRQ    $32, DX; \
	IMULQ   n, DX; \
	SHRQ    $32, DX; \
	MOVL    AX, AX; \
	MOVL    (alr)(DX*4), CX; \
	CMPQ    AX, (thr)(DX*8); \
	CMOVQCC CX, DX

// func elineDraw(tab *drawTables, seed int64, n int, buf []rfgraph.NodeID) int
TEXT ·elineDraw(SB), NOSPLIT, $0-56
	MOVQ  tab+0(FP), BX
	MOVQ  drawTables_edges(BX), R9
	MOVQ  drawTables_edgeThresh(BX), R10
	MOVQ  drawTables_edgeAlias(BX), R11
	MOVQ  drawTables_negNodes(BX), R13
	MOVQ  drawTables_negThresh(BX), R14
	MOVQ  drawTables_negAlias(BX), R15
	MOVSD drawTables_dropout(BX), X0
	MOVQ  $0x3ca0000000000000, AX
	MOVQ  AX, X1
	MOVQ  seed+8(FP), R8
	MOVQ  n+16(FP), SI
	MOVQ  buf_base+24(FP), DI

sample:
	TESTQ SI, SI
	JEQ   drawn
	DECQ  SI
	MOVQ  drawTables_dropout(BX), AX
	TESTQ AX, AX
	JEQ   edge

	// The coin: float64(u>>11) / 2^53 < dropout drops the sample.
	SPLITMIX
	SHRQ     $11, AX
	CVTSQ2SD AX, X2
	MULSD    X1, X2
	UCOMISD  X0, X2
	JCS      sample

edge:
	SPLITMIX
	DRAW(R10, R11, drawTables_edgeThresh+8(BX))
	SHLQ $4, DX
	MOVQ (R9)(DX*1), AX
	MOVQ AX, (DI)
	ADDQ $8, DI
	MOVQ drawTables_negatives(BX), R12

negative:
	TESTQ R12, R12
	JEQ   sample
	DECQ  R12
	SPLITMIX
	DRAW(R14, R15, drawTables_negThresh+8(BX))
	MOVL (R13)(DX*4), AX
	MOVL AX, (DI)
	ADDQ $4, DI
	JMP  negative

drawn:
	MOVQ DI, AX
	SUBQ buf_base+24(FP), AX
	SHRQ $2, AX
	MOVQ AX, ret+48(FP)
	RET

// Registers of elineApply:
//
//	SI, DI    ego and ctx tables        Y0:Y1  ego_i   Y2:Y3  ctx_i
//	R8        the sample                BX     &sigmoidTable
//	R9        end of samples            R10    stride in bytes
//	R11       end of the sample         R12    id cursor
//	R13, R14  row offsets of i and j (R14 is scratch until rows move)
//	AX, CX, DX, Y4-Y7 scratch; while coefficients are computed DX is their
//	cursor, and while rows move CX is
//
// While coefficients are computed, Y8-Y13 hold 9, -9, 4096/18, 0.5, 1
// and -lr; while rows move, Y14:Y15 and Y8:Y9 accumulate the two
// directions' gradients and Y10-Y13 are scratch.

// PAIR leaves in Y4 the four dot products of the rows a and b, the ids at
// R12 and R12+4 (a again when R12+4 ends the sample): [ego_i·ctx_a,
// ctx_i·ego_a, ego_i·ctx_b, ctx_i·ego_b]. Per row, VHADDPD of the low and
// high products gives (p0+p1, p4+p5, p2+p3, p6+p7); VPERM2F128 0x20 and
// 0x31 gather the two rows' (p0+p1, p4+p5) and (p2+p3, p6+p7), VADDPD
// forms (p0+p1)+(p2+p3) and (p4+p5)+(p6+p7), and the last VHADDPD adds
// those across the two directions' vectors: dot8's tree in every lane.
// It declines when a or b is i, or when a dot product is NaN.
#define PAIR \
	MOVLQSX    (R12), AX; \
	LEAQ       4(R12), CX; \
	CMPQ       CX, R11; \
	CMOVQEQ    R12, CX; \
	MOVLQSX    (CX), CX; \
	SHLQ       $6, AX; \
	SHLQ       $6, CX; \
	CMPQ       AX, R13; \
	JEQ        stop; \
	CMPQ       CX, R13; \
	JEQ        stop; \
	VMULPD     0(DI)(AX*1), Y0, Y4; \
	VMULPD     32(DI)(AX*1), Y1, Y5; \
	VHADDPD    Y5, Y4, Y4; \
	VMULPD     0(DI)(CX*1), Y0, Y5; \
	VMULPD     32(DI)(CX*1), Y1, Y6; \
	VHADDPD    Y6, Y5, Y5; \
	VPERM2F128 $0x20, Y5, Y4, Y6; \
	VPERM2F128 $0x31, Y5, Y4, Y4; \
	VADDPD     Y4, Y6, Y4; \
	VMULPD     0(SI)(AX*1), Y2, Y5; \
	VMULPD     32(SI)(AX*1), Y3, Y6; \
	VHADDPD    Y6, Y5, Y5; \
	VMULPD     0(SI)(CX*1), Y2, Y6; \
	VMULPD     32(SI)(CX*1), Y3, Y7; \
	VHADDPD    Y7, Y6, Y6; \
	VPERM2F128 $0x20, Y6, Y5, Y7; \
	VPERM2F128 $0x31, Y6, Y5, Y5; \
	VADDPD     Y5, Y7, Y5; \
	VHADDPD    Y5, Y4, Y4; \
	VCMPPD     $3, Y4, Y4, Y5; \
	VMOVMSKPD  Y5, AX; \
	TESTL      AX, AX; \
	JNE        stop

// SIGMOID leaves sigmoid of each lane of Y4 in Y6, without a branch: the
// table index is computed as the Go code computes it, VCVTTPD2DQ
// truncates it, and it is clamped to [0, sigmoidSize = 4096], so any x
// loads a table entry; two compare masks (predicates 0x1d GE_OQ and 0x12
// LE_OQ) then give exactly 1 for x >= 9 and exactly 0 for x <= -9. The
// four entries are loaded one by one, which measured faster than
// VGATHERDPD. It clobbers AX, CX and R14.
#define SIGMOID \
	VADDPD      Y8, Y4, Y5; \
	VMULPD      Y10, Y5, Y5; \
	VADDPD      Y11, Y5, Y5; \
	VCVTTPD2DQY Y5, X5; \
	VPXOR       X7, X7, X7; \
	VPMAXSD     X7, X5, X5; \
	VPMINSD     ·sigmoidIndexMax(SB), X5, X5; \
	VMOVQ       X5, AX; \
	VPEXTRQ     $1, X5, CX; \
	MOVL        AX, R14; \
	SHRQ        $32, AX; \
	VMOVSD      (BX)(R14*8), X6; \
	VMOVHPD     (BX)(AX*8), X6, X6; \
	MOVL        CX, R14; \
	SHRQ        $32, CX; \
	VMOVSD      (BX)(R14*8), X7; \
	VMOVHPD     (BX)(CX*8), X7, X7; \
	VINSERTF128 $1, X7, Y6, Y6; \
	VCMPPD      $0x1d, Y8, Y4, Y7; \
	VCMPPD      $0x12, Y9, Y4, Y5; \
	VORPD       Y5, Y7, Y5; \
	VANDNPD     Y6, Y5, Y6; \
	VANDPD      Y12, Y7, Y7; \
	VORPD       Y7, Y6, Y6

// UPDATE moves the row at rlo, rhi by the coefficient in g against the
// source lo:hi and adds coefficient × the row's old value to the
// accumulator alo:ahi, the element order of sgdUpdate8's loop; va, vb
// and t are scratch.
#define UPDATE(rlo, rhi, lo, hi, g, alo, ahi, va, vb, t) \
	VMOVUPD rlo, va; \
	VMOVUPD rhi, vb; \
	VMULPD  va, g, t; \
	VADDPD  t, alo, alo; \
	VMULPD  vb, g, t; \
	VADDPD  t, ahi, ahi; \
	VMULPD  lo, g, t; \
	VADDPD  t, va, va; \
	VMULPD  hi, g, t; \
	VADDPD  t, vb, vb; \
	VMOVUPD va, rlo; \
	VMOVUPD vb, rhi

// ROW applies both directions to the row at byte offset off, with the
// coefficients at (CX) and 8(CX): the context row against ego_i into the
// gradient Y14:Y15, and the ego row against ctx_i into Y8:Y9.
#define ROW(off) \
	VBROADCASTSD (CX), Y6; \
	VBROADCASTSD 8(CX), Y7; \
	UPDATE(0(DI)(off*1), 32(DI)(off*1), Y0, Y1, Y6, Y14, Y15, Y4, Y5, Y10); \
	UPDATE(0(SI)(off*1), 32(SI)(off*1), Y2, Y3, Y7, Y8, Y9, Y11, Y12, Y13)

// func elineApply(ego, ctx []float64, samples []rfgraph.NodeID, stride int, nlr float64, gs []float64) int
TEXT ·elineApply(SB), NOSPLIT, $0-120
	MOVQ ego_base+0(FP), SI
	MOVQ ctx_base+24(FP), DI
	MOVQ samples_base+48(FP), R8
	MOVQ samples_len+56(FP), R9
	LEAQ (R8)(R9*4), R9
	MOVQ stride+72(FP), R10
	SHLQ $2, R10

	LEAQ ·sigmoidTable(SB), BX

sample:
	// The constants go in every sample: the rows reuse Y8-Y13.
	CMPQ         R8, R9
	JEQ          stop
	VBROADCASTSD ·sigmoidConsts+0(SB), Y8
	VBROADCASTSD ·sigmoidConsts+8(SB), Y9
	VBROADCASTSD ·sigmoidConsts+16(SB), Y10
	VBROADCASTSD ·sigmoidConsts+24(SB), Y11
	VBROADCASTSD ·sigmoidConsts+32(SB), Y12
	VBROADCASTSD nlr+80(FP), Y13
	LEAQ         (R8)(R10*1), R11
	MOVLQSX      (R8), R13
	SHLQ         $6, R13
	VMOVUPD      0(SI)(R13*1), Y0
	VMOVUPD      32(SI)(R13*1), Y1
	VMOVUPD      0(DI)(R13*1), Y2
	VMOVUPD      32(DI)(R13*1), Y3

	// Coefficients, nothing written yet: rows j, z0, z1, ... two at a
	// time, row r's two directions at gs[2r] and gs[2r+1]. The first
	// vector's lanes 0 and 1 are j's: -lr·(sigmoid - 1).
	LEAQ    4(R8), R12
	MOVQ    gs_base+88(FP), DX
	PAIR
	SIGMOID
	VSUBPD  ·firstPairOnes(SB), Y6, Y6
	VMULPD  Y13, Y6, Y6
	VMOVUPD Y6, (DX)

coefficients:
	ADDQ    $8, R12
	ADDQ    $32, DX
	CMPQ    R12, R11
	JAE     rows
	PAIR
	SIGMOID
	VMULPD  Y13, Y6, Y6
	VMOVUPD Y6, (DX)
	JMP     coefficients

rows:
	// Both directions row by row, skipping negatives equal to j. They
	// touch disjoint rows, none of them i's, so interleaving them keeps
	// sgdUpdate8's order within each.
	MOVQ    gs_base+88(FP), CX
	LEAQ    4(R8), R12
	MOVLQSX (R12), R14
	SHLQ    $6, R14
	VXORPD  Y14, Y14, Y14
	VXORPD  Y15, Y15, Y15
	VXORPD  Y8, Y8, Y8
	VXORPD  Y9, Y9, Y9
	ROW(R14)

nextRow:
	ADDQ    $4, R12
	ADDQ    $16, CX
	CMPQ    R12, R11
	JEQ     sources
	MOVLQSX (R12), DX
	SHLQ    $6, DX
	CMPQ    DX, R14
	JEQ     nextRow
	ROW(DX)
	JMP     nextRow

sources:
	VADDPD  Y14, Y0, Y0
	VADDPD  Y15, Y1, Y1
	VMOVUPD Y0, 0(SI)(R13*1)
	VMOVUPD Y1, 32(SI)(R13*1)
	VADDPD  Y8, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VMOVUPD Y2, 0(DI)(R13*1)
	VMOVUPD Y3, 32(DI)(R13*1)
	MOVQ    R11, R8
	JMP     sample

stop:
	// R8 is the first sample not applied: the end, or a declined one.
	VZEROUPPER
	MOVQ R8, AX
	SUBQ samples_base+48(FP), AX
	XORL DX, DX
	DIVQ R10
	MOVQ AX, ret+112(FP)
	RET
