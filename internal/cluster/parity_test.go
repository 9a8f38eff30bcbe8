package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomItems builds n items with dim-dimensional uniform random vectors;
// the first l items carry labels cycling over maxLabels floors.
func randomItems(n, dim, l, maxLabels int, rng *rand.Rand) []Item {
	items := make([]Item, n)
	for i := range items {
		vec := make([]float64, dim)
		for d := range vec {
			vec[d] = rng.Float64() * 10
		}
		label := Unlabeled
		if i < l {
			label = i % maxLabels
		}
		items[i] = Item{Index: i, Vec: vec, Label: label}
	}
	return items
}

// sortedMemberSets flattens a model's clusters into canonical
// (label, sorted members) tuples, order-independent.
func sortedMemberSets(m *Model) [][]int {
	out := make([][]int, 0, len(m.Clusters))
	for _, c := range m.Clusters {
		ms := append([]int{c.Label}, c.Members...)
		sort.Ints(ms[1:])
		out = append(out, ms)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// TestTrainMatchesReferenceExactly is the fixed-seed parity gate: on
// randomized inputs in general position (distinct pairwise distances with
// probability 1), the memory-lean TrainCtx must reproduce the legacy
// flat-matrix implementation bit for bit — the full Trace (order, A/B
// orientation, distances), cluster labels, member order, and centroids.
func TestTrainMatchesReferenceExactly(t *testing.T) {
	cases := []struct {
		n, dim, labels, floors int
		seed                   int64
	}{
		{2, 1, 1, 1, 1},
		{3, 2, 2, 2, 2},
		{40, 2, 3, 3, 3},
		{60, 8, 6, 3, 4},
		{120, 16, 12, 4, 5},
		{200, 8, 5, 5, 6},
		{75, 4, 75, 9, 7}, // fully labeled: zero merges
		{90, 3, 1, 1, 8},  // single label: merges down to one cluster
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		items := randomItems(tc.n, tc.dim, tc.labels, tc.floors, rng)
		want, err := TrainReference(items)
		if err != nil {
			t.Fatalf("seed %d: TrainReference: %v", tc.seed, err)
		}
		got, err := TrainCtx(context.Background(), items)
		if err != nil {
			t.Fatalf("seed %d: Train: %v", tc.seed, err)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Fatalf("seed %d (n=%d): traces diverge\nnew:  %v\nref:  %v", tc.seed, tc.n, got.Trace, want.Trace)
		}
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Fatalf("seed %d (n=%d): clusters diverge\nnew:  %+v\nref:  %+v", tc.seed, tc.n, got.Clusters, want.Clusters)
		}
		if got.NumItems != want.NumItems {
			t.Fatalf("seed %d: NumItems %d != %d", tc.seed, got.NumItems, want.NumItems)
		}
	}
}

// TestTrainParityProperty is the randomized property test across dims,
// label densities, and duplicate-point inputs: labels, member sets, and
// merge count must match the reference. Duplicates are injected as exact
// unlabeled copies of existing points, so every distance tie involves
// coincident points — where tie order cannot change the final partition —
// rather than adversarial equal-distance geometry, which neither
// implementation pins beyond determinism.
func TestTrainParityProperty(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 5 + rng.Intn(80)
		dim := 1 + rng.Intn(12)
		floors := 1 + rng.Intn(5)
		l := 1 + rng.Intn(n)
		items := randomItems(n, dim, l, floors, rng)
		// Duplicate up to 25% of the points as unlabeled copies.
		for c := rng.Intn(n/4 + 1); c > 0; c-- {
			src := items[rng.Intn(len(items))]
			vec := append([]float64(nil), src.Vec...)
			items = append(items, Item{Index: len(items), Vec: vec, Label: Unlabeled})
		}
		want, err := TrainReference(items)
		if err != nil {
			t.Fatalf("trial %d: TrainReference: %v", trial, err)
		}
		got, err := TrainCtx(context.Background(), items)
		if err != nil {
			t.Fatalf("trial %d: Train: %v", trial, err)
		}
		if len(got.Trace) != len(want.Trace) {
			t.Fatalf("trial %d (n=%d l=%d dim=%d): merge count %d != %d",
				trial, len(items), l, dim, len(got.Trace), len(want.Trace))
		}
		gl, wl := got.MemberLabels(), want.MemberLabels()
		if !reflect.DeepEqual(gl, wl) {
			t.Fatalf("trial %d (n=%d l=%d dim=%d): labels diverge\nnew: %v\nref: %v",
				trial, len(items), l, dim, gl, wl)
		}
		if gs, ws := sortedMemberSets(got), sortedMemberSets(want); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("trial %d (n=%d l=%d dim=%d): member sets diverge\nnew: %v\nref: %v",
				trial, len(items), l, dim, gs, ws)
		}
	}
}

// TestTrainErrorParity: both implementations reject the same bad inputs.
func TestTrainErrorParity(t *testing.T) {
	if _, err := TrainReference(nil); !errors.Is(err, ErrNoItems) {
		t.Errorf("reference empty error = %v, want ErrNoItems", err)
	}
	unlabeled := []Item{{Vec: []float64{0}, Label: Unlabeled}}
	if _, err := TrainReference(unlabeled); !errors.Is(err, ErrNoLabels) {
		t.Errorf("reference no-labels error = %v, want ErrNoLabels", err)
	}
	bad := []Item{{Vec: []float64{0, 1}, Label: 0}, {Vec: []float64{0}, Label: Unlabeled}}
	if _, err := TrainReference(bad); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("reference dim error = %v, want ErrDimMismatch", err)
	}
}

// TestTrainTieRule pins the documented deterministic tie rule of the new
// implementation: among tied minimum-distance pairs, the merge taken is
// the one owned by the lowest-indexed condensed row. Four collinear
// equally spaced points give two exactly tied minimum pairs (0,1) and
// (2,3) after excluding the forbidden labeled pair; row 0 must win the
// first merge.
func TestTrainTieRule(t *testing.T) {
	items := []Item{
		{Index: 0, Vec: []float64{0}, Label: Unlabeled},
		{Index: 1, Vec: []float64{1}, Label: 0},
		{Index: 2, Vec: []float64{10}, Label: 1},
		{Index: 3, Vec: []float64{11}, Label: Unlabeled},
	}
	m, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(m.Trace) != 2 {
		t.Fatalf("trace length = %d, want 2", len(m.Trace))
	}
	// d(0,1) == d(2,3) == 1: the row-0 pair merges first, and as two
	// untouched singletons the lower index is the A side.
	if m.Trace[0].A != 0 || m.Trace[0].B != 1 || m.Trace[0].Distance != 1 {
		t.Errorf("first merge = %+v, want {A:0 B:1 Distance:1}", m.Trace[0])
	}
	if m.Trace[1].A != 2 || m.Trace[1].B != 3 || m.Trace[1].Distance != 1 {
		t.Errorf("second merge = %+v, want {A:2 B:3 Distance:1}", m.Trace[1])
	}
	// Determinism: repeated runs must be identical.
	again, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train again: %v", err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Error("tied input not deterministic across runs")
	}
}

// TestPairFreshnessRejectsSumCollision is the regression test for the
// stale-pair invalidation in the lazy-heap implementations: the old check
// compared version[a]+version[b] against the sum recorded at push time,
// which validates any state whose per-side versions merely sum to the
// pushed total. The per-side check must reject such a collision.
func TestPairFreshnessRejectsSumCollision(t *testing.T) {
	p := pair{a: 0, b: 1, verA: 0, verB: 1}
	// Collision state: side a advanced to 1 while side b reads 0 — the
	// summed check (0+1 == 1+0) would call this fresh.
	version := []int32{1, 0}
	if p.verA+p.verB != version[p.a]+version[p.b] {
		t.Fatal("test setup broken: versions must sum-collide")
	}
	if p.fresh(version) {
		t.Error("fresh() validated a stale pair whose per-side versions sum-collide")
	}
	if !p.fresh([]int32{0, 1}) {
		t.Error("fresh() rejected a genuinely fresh pair")
	}
}

// TestTrainCtxCancelled: a cancelled context aborts training immediately
// with ctx.Err() and no partial model.
func TestTrainCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := gaussianBlobs(3, 40, 1, 9)
	m, err := TrainCtx(ctx, items)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Error("TrainCtx returned a partial model alongside the cancellation error")
	}
}

// TestTrainCtxMidFlight cancels after the first merge via a context that
// trips once work has started, asserting the loop notices promptly.
func TestTrainCtxMidFlight(t *testing.T) {
	items := gaussianBlobs(2, 60, 1, 10)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from a goroutine racing the (fast) training; whichever way
	// the race resolves, the result must be either a complete model or a
	// clean context.Canceled — never a partial model without error.
	go cancel()
	m, err := TrainCtx(ctx, items)
	switch {
	case err == nil:
		if len(m.Clusters) != 2 {
			t.Errorf("completed run has %d clusters, want 2", len(m.Clusters))
		}
	case errors.Is(err, context.Canceled):
		if m != nil {
			t.Error("cancelled run returned a partial model")
		}
	default:
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCondIdx checks the condensed-triangle index arithmetic against the
// naive enumeration for several sizes.
func TestCondIdx(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17} {
		want := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got := condIdx(i, j, n); got != want {
					t.Fatalf("condIdx(%d,%d,%d) = %d, want %d", i, j, n, got, want)
				}
				want++
			}
		}
		if want != n*(n-1)/2 {
			t.Fatalf("enumeration covered %d slots, want %d", want, n*(n-1)/2)
		}
	}
}

// TestTrainDuplicateLabeledSite: duplicates that include one labeled copy
// still obey the constraint and produce a valid partition (every cluster
// exactly one label, every item assigned once).
func TestTrainDuplicateLabeledSite(t *testing.T) {
	items := []Item{
		{Index: 0, Vec: []float64{5, 5}, Label: 0},
		{Index: 1, Vec: []float64{5, 5}, Label: Unlabeled},
		{Index: 2, Vec: []float64{5, 5}, Label: Unlabeled},
		{Index: 3, Vec: []float64{40, 40}, Label: 1},
		{Index: 4, Vec: []float64{40, 40}, Label: Unlabeled},
	}
	m, err := TrainCtx(context.Background(), items)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(m.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(m.Clusters))
	}
	labels := m.MemberLabels()
	want := []int{0, 0, 0, 1, 1}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("labels = %v, want %v", labels, want)
	}
	for _, c := range m.Clusters {
		if c.Label == Unlabeled {
			t.Error("cluster left unlabeled")
		}
		if math.IsNaN(c.Centroid[0]) {
			t.Error("NaN centroid")
		}
	}
}
