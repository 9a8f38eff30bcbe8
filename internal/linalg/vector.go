// Package linalg provides the dense linear-algebra primitives used across
// the GRAFICS reproduction: vector kernels, dense matrices, an iterative
// eigensolver, and the distance/centering helpers needed by classical MDS
// and t-SNE. Everything is stdlib-only and allocation-conscious; the hot
// kernels (Dot, Axpy) are written to be inlinable and bounds-check friendly.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when two operands have incompatible
// shapes.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Dot returns the inner product of a and b. It panics if the lengths
// differ; all callers in this module construct equal-length vectors, so a
// mismatch is a programming error, not a runtime condition.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean (l2) norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SquaredDistance returns ||a-b||^2.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: SquaredDistance length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Distance returns the Euclidean distance ||a-b||.
func Distance(a, b []float64) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// CosineSimilarity returns a.b / (||a|| ||b||). If either vector has zero
// norm the similarity is defined as 0 so that the derived dissimilarity
// (1 - cos) is maximal, matching the paper's MDS setup where an all-missing
// record carries no information.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Normalize scales x to unit l2 norm in place and returns the original
// norm. A zero vector is left unchanged.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range x {
		x[i] *= inv
	}
	return n
}

// Mean returns the element-wise mean of the given equal-length vectors.
// It returns nil for an empty input.
func Mean(vecs [][]float64) []float64 {
	if len(vecs) == 0 {
		return nil
	}
	out := make([]float64, len(vecs[0]))
	for _, v := range vecs {
		Axpy(1, v, out)
	}
	Scale(1/float64(len(vecs)), out)
	return out
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}
