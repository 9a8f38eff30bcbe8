//go:build amd64

package embed

import "repro/internal/rfgraph"

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers, which elineStep8 needs.
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

// sigmoidConsts hands elineStep8 the constants of sigmoid, converted to
// float64 exactly as the Go expression converts them.
var sigmoidConsts = [...]float64{sigmoidBound, -sigmoidBound, sigmoidSize / (2 * sigmoidBound), 0.5, 1}

// elineStep8 applies one E-LINE sample at dim 8 with AVX2: both
// directions of sgdUpdate8 — ego_i against the context rows of j and the
// negatives zs, then ctx_i against their ego rows — over ego and ctx, the
// flat row-major tables newEmbedding carves Embedding.Ego and .Ctx from.
// nlr is -lr, and gs is scratch for 2·(len(zs)+1) step coefficients.
//
// It gives sgdUpdate8's bits: the same products, dot8's association, a
// separate multiply and add (no FMA), every coefficient against the
// unchanged sources, and sigmoid's table bin and saturation, branch-free.
// Because nothing the first direction writes is read by the second unless
// a node of the sample is i, it computes all 2·(len(zs)+1) coefficients
// first. It declines, returning false and writing no row, when j or a
// negative is i, or when a dot product is NaN; the caller then applies the
// sample with sgdUpdate, which keeps the sequential order and reports the
// divergence. Every id must index a row of both tables.
//
//go:noescape
func elineStep8(ego, ctx []float64, i, j rfgraph.NodeID, zs []rfgraph.NodeID, nlr float64, gs []float64) bool
