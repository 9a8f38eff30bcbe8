package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gaussianBlobs builds k well-separated 2-D blobs of m points each, with
// the first labeledPer points of each blob labeled with the blob index.
func gaussianBlobs(k, m, labeledPer int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	var items []Item
	idx := 0
	for b := 0; b < k; b++ {
		cx := float64(b) * 20
		for p := 0; p < m; p++ {
			label := Unlabeled
			if p < labeledPer {
				label = b
			}
			items = append(items, Item{
				Index: idx,
				Vec:   []float64{cx + rng.NormFloat64(), rng.NormFloat64()},
				Label: label,
			})
			idx++
		}
	}
	return items
}

func TestTrainErrors(t *testing.T) {
	if _, err := TrainCtx(context.Background(), nil); !errors.Is(err, ErrNoItems) {
		t.Errorf("empty error = %v, want ErrNoItems", err)
	}
	items := []Item{{Vec: []float64{0}, Label: Unlabeled}}
	if _, err := TrainCtx(context.Background(), items); !errors.Is(err, ErrNoLabels) {
		t.Errorf("no-labels error = %v, want ErrNoLabels", err)
	}
	bad := []Item{
		{Vec: []float64{0, 1}, Label: 0},
		{Vec: []float64{0}, Label: Unlabeled},
	}
	if _, err := TrainCtx(context.Background(), bad); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim error = %v, want ErrDimMismatch", err)
	}
}

func TestTrainThreeBlobs(t *testing.T) {
	items := gaussianBlobs(3, 30, 1, 1)
	m, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(m.Clusters) != 3 {
		t.Fatalf("clusters = %d, want 3 (one per labeled sample)", len(m.Clusters))
	}
	// Every member must carry its blob's label.
	labels := m.MemberLabels()
	for i, it := range items {
		wantBlob := it.Index / 30
		if labels[i] != wantBlob {
			t.Errorf("item %d assigned label %d, want %d", i, labels[i], wantBlob)
		}
	}
}

func TestClusterCountEqualsLabelCount(t *testing.T) {
	// 4 labels per blob: multiple clusters per floor are expected (the
	// paper notes multiple clusters can map to one floor).
	items := gaussianBlobs(2, 25, 4, 2)
	m, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(m.Clusters) != 8 {
		t.Fatalf("clusters = %d, want 8", len(m.Clusters))
	}
	for _, c := range m.Clusters {
		if c.Label == Unlabeled {
			t.Error("final cluster without label")
		}
		if len(c.Members) == 0 {
			t.Error("empty cluster")
		}
	}
}

func TestNoTwoLabelsInOneCluster(t *testing.T) {
	// Even with overlapping blobs, the constraint must hold exactly.
	rng := rand.New(rand.NewSource(3))
	var items []Item
	for i := 0; i < 40; i++ {
		label := Unlabeled
		if i < 6 {
			label = i % 3
		}
		items = append(items, Item{Index: i, Vec: []float64{rng.NormFloat64(), rng.NormFloat64()}, Label: label})
	}
	m, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(m.Clusters) != 6 {
		t.Fatalf("clusters = %d, want 6 (= number of labeled items)", len(m.Clusters))
	}
	for ci, c := range m.Clusters {
		labeled := 0
		for _, idx := range c.Members {
			if items[idx].Label != Unlabeled {
				labeled++
			}
		}
		if labeled != 1 {
			t.Errorf("cluster %d holds %d labeled items, want exactly 1", ci, labeled)
		}
	}
}

func TestPredict(t *testing.T) {
	items := gaussianBlobs(3, 20, 1, 4)
	m, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	tests := []struct {
		name string
		vec  []float64
		want int
	}{
		{"blob 0 center", []float64{0, 0}, 0},
		{"blob 1 center", []float64{20, 0}, 1},
		{"blob 2 center", []float64{40, 0}, 2},
		{"near blob 2", []float64{37, 1}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, idx, d := m.Predict(tt.vec)
			if got != tt.want {
				t.Errorf("Predict(%v) = %d, want %d", tt.vec, got, tt.want)
			}
			if idx < 0 || math.IsInf(d, 1) {
				t.Errorf("Predict returned idx=%d dist=%v", idx, d)
			}
		})
	}
}

func TestCentroids(t *testing.T) {
	items := []Item{
		{Index: 0, Vec: []float64{0, 0}, Label: 0},
		{Index: 1, Vec: []float64{2, 0}, Label: Unlabeled},
		{Index: 2, Vec: []float64{100, 0}, Label: 1},
	}
	m, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(m.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(m.Clusters))
	}
	for _, c := range m.Clusters {
		if c.Label == 0 {
			if c.Centroid[0] != 1 {
				t.Errorf("cluster 0 centroid = %v, want [1 0]", c.Centroid)
			}
		}
		if c.Label == 1 {
			if c.Centroid[0] != 100 {
				t.Errorf("cluster 1 centroid = %v, want [100 0]", c.Centroid)
			}
		}
	}
}

func TestTraceAndAssignments(t *testing.T) {
	items := gaussianBlobs(2, 10, 1, 5)
	m, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// n items merge down to #labels clusters => n - labels merges.
	wantMerges := 20 - 2
	if len(m.Trace) != wantMerges {
		t.Fatalf("trace length = %d, want %d", len(m.Trace), wantMerges)
	}
	// At step 0 everything is a singleton.
	a0 := m.AssignmentsAfter(0)
	distinct := map[int]bool{}
	for _, r := range a0 {
		distinct[r] = true
	}
	if len(distinct) != 20 {
		t.Errorf("step 0 distinct clusters = %d, want 20", len(distinct))
	}
	// After all merges there are exactly 2 clusters.
	aN := m.AssignmentsAfter(len(m.Trace))
	distinct = map[int]bool{}
	for _, r := range aN {
		distinct[r] = true
	}
	if len(distinct) != 2 {
		t.Errorf("final distinct clusters = %d, want 2", len(distinct))
	}
	// Requesting beyond the trace clamps.
	aBig := m.AssignmentsAfter(10_000)
	for i := range aN {
		if aN[i] != aBig[i] {
			t.Error("AssignmentsAfter should clamp at trace length")
		}
	}
}

func TestMergeDistancesMonotoneOnCleanData(t *testing.T) {
	// With average linkage on well-separated blobs the big jumps come
	// last: the final merge distance must exceed the first.
	items := gaussianBlobs(2, 15, 1, 6)
	m, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(m.Trace) < 2 {
		t.Fatal("trace too short")
	}
	if m.Trace[len(m.Trace)-1].Distance <= m.Trace[0].Distance {
		t.Errorf("last merge %v not above first %v", m.Trace[len(m.Trace)-1].Distance, m.Trace[0].Distance)
	}
}

// Property: for random data with L labeled items (L >= 1), Train yields
// exactly L clusters, each containing exactly one labeled item, and every
// item is assigned to exactly one cluster.
func TestTrainInvariantsProperty(t *testing.T) {
	f := func(rawN uint8, rawL uint8, seed int64) bool {
		n := int(rawN%30) + 2
		l := int(rawL)%n + 1
		rng := rand.New(rand.NewSource(seed))
		items := make([]Item, n)
		for i := range items {
			label := Unlabeled
			if i < l {
				label = i % 3
			}
			items[i] = Item{Index: i, Vec: []float64{rng.Float64() * 10, rng.Float64() * 10}, Label: label}
		}
		m, err := TrainCtx(context.Background(), items)
		if err != nil {
			return false
		}
		if len(m.Clusters) != l {
			return false
		}
		seen := make([]int, n)
		for _, c := range m.Clusters {
			labeledCount := 0
			for _, idx := range c.Members {
				seen[idx]++
				if items[idx].Label != Unlabeled {
					labeledCount++
				}
			}
			if labeledCount != 1 {
				return false
			}
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPredictOnUntrainedModel(t *testing.T) {
	m := &Model{}
	label, idx, d := m.Predict([]float64{0})
	if label != Unlabeled || idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty model Predict = (%d,%d,%v)", label, idx, d)
	}
}

func TestTrainUnconstrained(t *testing.T) {
	items := gaussianBlobs(3, 20, 1, 7)
	m, err := TrainUnconstrained(items, 3)
	if err != nil {
		t.Fatalf("TrainUnconstrained: %v", err)
	}
	if len(m.Clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(m.Clusters))
	}
	labels := m.MemberLabels()
	correct := 0
	for i, it := range items {
		if labels[i] == it.Index/20 {
			correct++
		}
	}
	if correct != len(items) {
		t.Errorf("unconstrained on clean blobs: %d/%d correct", correct, len(items))
	}
}

func TestTrainUnconstrainedErrors(t *testing.T) {
	if _, err := TrainUnconstrained(nil, 1); !errors.Is(err, ErrNoItems) {
		t.Errorf("empty = %v, want ErrNoItems", err)
	}
	items := gaussianBlobs(1, 5, 1, 8)
	if _, err := TrainUnconstrained(items, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := TrainUnconstrained(items, 99); err == nil {
		t.Error("k>n should error")
	}
	bad := []Item{{Vec: []float64{1, 2}}, {Vec: []float64{1}}}
	if _, err := TrainUnconstrained(bad, 1); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim = %v, want ErrDimMismatch", err)
	}
}

// TestConstraintValue demonstrates the ablation: with noisy blobs and one
// label per blob, the constrained clustering cannot bury two labels in one
// cluster, while unconstrained k-cluster agglomeration can leave a cluster
// with no label at all.
func TestConstraintValue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var items []Item
	for b := 0; b < 3; b++ {
		for p := 0; p < 25; p++ {
			label := Unlabeled
			if p == 0 {
				label = b
			}
			// Overlapping blobs: centers 4 apart with sigma ~1.5.
			items = append(items, Item{
				Index: b*25 + p,
				Vec:   []float64{float64(b)*4 + rng.NormFloat64()*1.5, rng.NormFloat64() * 1.5},
				Label: label,
			})
		}
	}
	constrained, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for _, c := range constrained.Clusters {
		if c.Label == Unlabeled {
			t.Error("constrained clustering left a cluster unlabeled")
		}
	}
	un, err := TrainUnconstrained(items, 3)
	if err != nil {
		t.Fatalf("TrainUnconstrained: %v", err)
	}
	if len(un.Clusters) != 3 {
		t.Fatalf("unconstrained clusters = %d, want 3", len(un.Clusters))
	}
}
