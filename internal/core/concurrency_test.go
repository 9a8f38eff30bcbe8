package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentPredictAndAbsorb hammers a trained system from multiple
// goroutines mixing read-only predictions, graph-mutating absorbs, and MAC
// removals; run under -race this validates the locking discipline.
func TestConcurrentPredictAndAbsorb(t *testing.T) {
	train, test := campusSplit(t, 40, 4, 21)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	ctx := context.Background()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(test); i += workers {
				rec := test[i]
				var err error
				switch i % 3 {
				case 0:
					_, err = s.Classify(ctx, &rec)
				case 1:
					rec.ID = rec.ID + "-absorb"
					_, err = s.Classify(ctx, &rec, WithAbsorb())
				default:
					_, err = s.TrainingAssignments()
					s.Stats()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent op: %v", err)
	}
	// System still functional afterwards.
	if _, err := s.Classify(ctx, &test[0]); err != nil {
		t.Errorf("post-stress Classify: %v", err)
	}
}

// TestPredictStressWithWriter floods the system with read-only Classify
// goroutines while a single writer interleaves absorbs, then asserts the
// graph grew by exactly the absorbed records — i.e. the overlay-based
// predictions left zero residue. Run under -race this exercises the
// RLock(readers)/Lock(writer) discipline far harder than the mixed test
// above: every reader iterates many times against the same snapshot
// window the writer keeps replacing.
func TestPredictStressWithWriter(t *testing.T) {
	train, test := campusSplit(t, 40, 4, 22)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	baseline := s.Stats()
	ctx := context.Background()

	const (
		readers         = 8
		predictsPerGoro = 30
		absorbs         = 5
	)
	var predicted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// One exclusive writer absorbing a handful of records.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < absorbs; i++ {
			rec := test[i]
			rec.ID = rec.ID + "-absorbed"
			if _, err := s.Classify(ctx, &rec, WithAbsorb()); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Many read-only predictors hammering concurrently.
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < predictsPerGoro; i++ {
				rec := test[(w*predictsPerGoro+i)%len(test)]
				if _, err := s.Classify(ctx, &rec); err != nil {
					errs <- err
					return
				}
				predicted.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent op: %v", err)
	}
	if got := predicted.Load(); got != readers*predictsPerGoro {
		t.Errorf("completed %d predictions, want %d", got, readers*predictsPerGoro)
	}
	// Node count returned to baseline plus exactly the absorbed records:
	// predictions must leave no residue in the graph.
	after := s.Stats()
	if after.Records != baseline.Records+absorbs {
		t.Errorf("records %d -> %d, want baseline+%d", baseline.Records, after.Records, absorbs)
	}
	if after.MACs < baseline.MACs {
		t.Errorf("MACs shrank %d -> %d", baseline.MACs, after.MACs)
	}
}
