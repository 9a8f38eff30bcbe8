package mds

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestCosineDissimilarity(t *testing.T) {
	rows := [][]float64{{1, 0}, {0, 1}, {1, 0}}
	m, err := CosineDissimilarity(rows)
	if err != nil {
		t.Fatalf("CosineDissimilarity: %v", err)
	}
	if m.At(0, 1) != 1 {
		t.Errorf("orthogonal dissimilarity = %v, want 1", m.At(0, 1))
	}
	if m.At(0, 2) != 0 {
		t.Errorf("identical dissimilarity = %v, want 0", m.At(0, 2))
	}
	if m.At(0, 0) != 0 {
		t.Errorf("self dissimilarity = %v, want 0", m.At(0, 0))
	}
	if _, err := CosineDissimilarity([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged rows should error")
	}
}

// pointsToDiss builds a Euclidean distance matrix from coordinates.
func pointsToDiss(pts [][]float64) *linalg.Matrix {
	n := len(pts)
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, linalg.Distance(pts[i], pts[j]))
		}
	}
	return m
}

func TestClassicalRecoversEuclideanConfig(t *testing.T) {
	// Points on a line: classical MDS must recover pairwise distances
	// exactly (up to rotation/reflection).
	pts := [][]float64{{0, 0}, {3, 0}, {7, 0}, {10, 0}}
	diss := pointsToDiss(pts)
	coords, err := Classical(diss, 2, 1)
	if err != nil {
		t.Fatalf("Classical: %v", err)
	}
	for i := range pts {
		for j := range pts {
			want := diss.At(i, j)
			got := linalg.Distance(coords[i], coords[j])
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("distance(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestClassicalErrors(t *testing.T) {
	if _, err := Classical(linalg.NewMatrix(2, 3), 1, 1); err == nil {
		t.Error("non-square should error")
	}
	if _, err := Classical(linalg.NewMatrix(3, 3), 0, 1); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Classical(linalg.NewMatrix(3, 3), 4, 1); err == nil {
		t.Error("k>n should error")
	}
}
