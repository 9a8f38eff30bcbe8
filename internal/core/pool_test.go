package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestClassifyPooledDeterminism: the pooled workspaces must be invisible —
// a classification returns the identical result no matter which
// (possibly dirty) workspace the pool hands the request, sequentially or
// in parallel.
func TestClassifyPooledDeterminism(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	want, err := s.Classify(ctx, &test[0], WithTopK(-1))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	// Dirty the pool with differently-shaped requests between replays.
	for i := 1; i < 10; i++ {
		if _, err := s.Classify(ctx, &test[i%len(test)], WithTopK(2)); err != nil {
			t.Fatalf("Classify (dirtying): %v", err)
		}
		got, err := s.Classify(ctx, &test[0], WithTopK(-1))
		if err != nil {
			t.Fatalf("Classify (replay %d): %v", i, err)
		}
		assertSameResult(t, want, got)
	}
	var wg sync.WaitGroup
	results := make([]Result, 16)
	errs := make([]error, 16)
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = s.Classify(ctx, &test[0], WithTopK(-1))
		}(w)
	}
	wg.Wait()
	for w := range results {
		if errs[w] != nil {
			t.Fatalf("parallel Classify %d: %v", w, errs[w])
		}
		assertSameResult(t, want, results[w])
	}
}

func assertSameResult(t *testing.T, want, got Result) {
	t.Helper()
	if got.Floor != want.Floor || got.ClusterIndex != want.ClusterIndex ||
		got.Distance != want.Distance || got.Confidence != want.Confidence {
		t.Fatalf("pooled classification diverged: %+v vs %+v", got, want)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("candidate count diverged: %d vs %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		if got.Candidates[i] != want.Candidates[i] {
			t.Fatalf("candidate %d diverged: %+v vs %+v", i, got.Candidates[i], want.Candidates[i])
		}
	}
	for d := range want.Embedding {
		if got.Embedding[d] != want.Embedding[d] {
			t.Fatalf("embedding dim %d diverged", d)
		}
	}
}

// TestClassifyEmbeddingIsolated: the returned embedding must be the
// caller's own copy, not a view into a pooled buffer a later request will
// overwrite.
func TestClassifyEmbeddingIsolated(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	res, err := s.Classify(ctx, &test[0])
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	snapshot := append([]float64(nil), res.Embedding...)
	for i := 0; i < 8; i++ {
		if _, err := s.Classify(ctx, &test[(i+1)%len(test)]); err != nil {
			t.Fatalf("Classify: %v", err)
		}
	}
	for d := range snapshot {
		if res.Embedding[d] != snapshot[d] {
			t.Fatal("a later pooled request overwrote a returned embedding")
		}
	}
}

// TestClassifyPoolUnderConcurrentAbsorb hammers the pooled read path while
// writers absorb scans and retire MACs; under -race this proves the
// workspace pool and the cached floor index stay correct while the graph,
// sampler, and embedding tables churn underneath.
func TestClassifyPoolUnderConcurrentAbsorb(t *testing.T) {
	train, test := campusSplit(t, 40, 4, 33)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	ctx := context.Background()
	const readers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, readers+2)
	// Writer 1: absorb a stream of uniquified scans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			rec := test[i%len(test)]
			rec.ID = fmt.Sprintf("%s-absorb-%d", rec.ID, i)
			if _, err := s.Classify(ctx, &rec, WithAbsorb()); err != nil {
				errCh <- fmt.Errorf("absorb %d: %w", i, err)
				return
			}
		}
	}()
	// Writer 2: retire and (via absorbs above) possibly re-introduce MACs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		macs := s.MACs()
		for i := 0; i < 5 && i < len(macs); i++ {
			// Ignore errors: a MAC may already be gone; the point is the
			// lock interleaving.
			_ = s.RemoveMAC(macs[len(macs)-1-i])
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rec := test[(w*40+i)%len(test)]
				if _, err := s.Classify(ctx, &rec, WithTopK(-1)); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
