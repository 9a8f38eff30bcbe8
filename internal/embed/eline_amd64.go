//go:build amd64

package embed

import (
	"unsafe"

	"repro/internal/rfgraph"
)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers, which elineApply needs.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// elineDraw copies a drawn edge's Src and Dst as the first eight bytes of
// a 16-byte DirectedEdge; these lines stop compiling if that layout
// changes.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(rfgraph.DirectedEdge{})-16]
	_ = [1]struct{}{}[unsafe.Offsetof(rfgraph.DirectedEdge{}.Dst)-4]
)

// sigmoidConsts hands elineApply the constants of sigmoid, converted to
// float64 exactly as the Go expression converts them.
var sigmoidConsts = [...]float64{sigmoidBound, -sigmoidBound, sigmoidSize / (2 * sigmoidBound), 0.5, 1}

// firstPairOnes is subtracted from the sigmoids of a sample's first
// coefficient vector, whose lanes 0 and 1 are the positive pair's.
var firstPairOnes = [4]float64{1, 1, 0, 0}

// sigmoidIndexMax clamps elineApply's four table indices from above.
var sigmoidIndexMax = [4]int32{sigmoidSize, sigmoidSize, sigmoidSize, sigmoidSize}

// elineDraw draws n samples of a chunk's stream from the SplitMix64 state
// seed, exactly as runChunk's Go loop draws them with sampling.Fast: a
// dropout coin (Float64() < tab.dropout) when tab.dropout is not zero,
// then one edge and tab.negatives negatives, each as Alias.DrawFast picks
// over tab's columns. It writes each kept sample to buf as its i, j and
// negatives, and returns the number of entries written; buf must hold
// n·(tab.negatives+2) of them.
//
//go:noescape
func elineDraw(tab *drawTables, seed int64, n int, buf []rfgraph.NodeID) int

// elineApply applies E-LINE samples at dim 8 with AVX2, in order, over ego
// and ctx, the flat row-major tables newEmbedding carves Embedding.Ego and
// .Ctx from. samples holds them as elineDraw writes them, stride entries
// (i, j and stride-2 negatives) each; nlr is -lr, and gs is scratch for
// 4·⌈(stride-1)/2⌉ step coefficients. It returns the number of samples
// it applied: all of them, or the index of the first it declines, having
// written nothing of that one.
//
// Each sample is both directions of sgdUpdate8 — ego_i against the
// context rows of j and the negatives, then ctx_i against their ego rows
// — with sgdUpdate8's bits: the same products, dot8's association per
// lane, a separate multiply and add (no FMA), every coefficient against
// the unchanged sources, and sigmoid's table bin and saturation. Because
// nothing the first direction writes is read by the second unless a node
// of the sample is i, it computes all 2·(stride-1) coefficients first,
// four lanes at a time, and then moves each row's two directions
// together. It declines a sample when j or a negative is i, or when a dot
// product is NaN; the caller then applies it with sgdUpdate, which keeps
// the sequential order and reports the divergence. Every id must index a
// row of both tables.
//
//go:noescape
func elineApply(ego, ctx []float64, samples []rfgraph.NodeID, stride int, nlr float64, gs []float64) int
