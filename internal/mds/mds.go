// Package mds implements multidimensional scaling for the MDS+Prox
// baseline of the GRAFICS evaluation (§VI-A): classical (Torgerson) MDS via
// double centering and a power-iteration eigensolver. The paper's setup
// uses the pairwise dissimilarity 1 − cosine(a, b) over fingerprint
// vectors, provided here as CosineDissimilarity.
package mds

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// CosineDissimilarity builds the n×n matrix with entries
// 1 − cosine(rows[i], rows[j]).
func CosineDissimilarity(rows [][]float64) (*linalg.Matrix, error) {
	n := len(rows)
	for i := 0; i < n; i++ {
		if len(rows[i]) != len(rows[0]) {
			return nil, fmt.Errorf("mds: row %d has %d cols, want %d: %w", i, len(rows[i]), len(rows[0]), linalg.ErrDimensionMismatch)
		}
	}
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 - linalg.CosineSimilarity(rows[i], rows[j])
			m.Set(i, j, d)
			m.Set(j, i, d)
		}
	}
	return m, nil
}

// Classical performs Torgerson MDS: square the dissimilarities, double
// center, and embed with the top-k eigenpairs. Negative eigenvalues
// (non-Euclidean dissimilarities) contribute zero coordinates, the standard
// convention.
func Classical(diss *linalg.Matrix, k int, seed int64) ([][]float64, error) {
	if diss.Rows != diss.Cols {
		return nil, fmt.Errorf("mds: dissimilarity matrix %dx%d not square: %w", diss.Rows, diss.Cols, linalg.ErrDimensionMismatch)
	}
	n := diss.Rows
	if k <= 0 || k > n {
		return nil, fmt.Errorf("mds: k=%d outside [1,%d]", k, n)
	}
	b := diss.Clone()
	for i := range b.Data {
		b.Data[i] *= b.Data[i]
	}
	b.DoubleCenter()
	opts := linalg.DefaultEigenOptions()
	opts.Seed = seed
	vals, vecs, err := linalg.TopEigen(b, k, opts)
	if err != nil {
		return nil, fmt.Errorf("mds: eigensolve: %w", err)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, k)
	}
	for p := 0; p < k; p++ {
		if vals[p] <= 0 {
			continue
		}
		scale := math.Sqrt(vals[p])
		for i := 0; i < n; i++ {
			out[i][p] = scale * vecs[p][i]
		}
	}
	return out, nil
}
