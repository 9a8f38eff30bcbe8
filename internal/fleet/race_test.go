package fleet

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/wal"
)

// TestFollowerApplyRacesHotSwap exercises the follower-apply path
// (lifecycle.ApplyRecord absorbing shipped records into the portfolio)
// racing a refit-style ReplaceSystem hot-swap, concurrent Save
// snapshots, and classify reads. Run under -race, it proves the
// portfolio's locking covers the replication data path: followers keep
// serving and applying while their models are swapped underneath them.
func TestFollowerApplyRacesHotSwap(t *testing.T) {
	ctx := context.Background()
	train, pool := campus(t, "alpha", 11)
	cfg := fastConfig()
	p := portfolio.New(cfg)
	if err := p.AddBuildingCtx(ctx, "alpha", train); err != nil {
		t.Fatalf("AddBuilding: %v", err)
	}
	// A second fitted system to swap against, as a lifecycle refit would.
	spare := core.New(cfg)
	if err := spare.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := spare.FitCtx(ctx); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	orig, err := p.System("alpha")
	if err != nil {
		t.Fatalf("System: %v", err)
	}

	const iters = 60
	saveDir := t.TempDir()
	var wg sync.WaitGroup
	wg.Add(4)
	// Follower-apply path: absorb shipped records.
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rec, _ := uniqueScan(pool[i%len(pool)], i)
			r := wal.Record{Building: "alpha", Scan: rec}
			if err := lifecycle.ApplyRecord(ctx, p, r); err != nil {
				t.Errorf("ApplyRecord %d: %v", i, err)
				return
			}
		}
	}()
	// Refit path: hot-swap the live system back and forth.
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			sys := spare
			if i%2 == 1 {
				sys = orig
			}
			if err := p.ReplaceSystem("alpha", sys); err != nil {
				t.Errorf("ReplaceSystem %d: %v", i, err)
				return
			}
		}
	}()
	// Snapshot path: persist while both of the above mutate.
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := p.Save(saveDir); err != nil {
				t.Errorf("Save %d: %v", i, err)
				return
			}
		}
	}()
	// Read path: classify throughout.
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := p.ClassifyRouted(ctx, &pool[i%len(pool)]); err != nil {
				t.Errorf("ClassifyRouted %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	// The saved snapshot is loadable after all the churn.
	restored, err := portfolio.LoadPortfolio(saveDir, cfg)
	if err != nil {
		t.Fatalf("LoadPortfolio after churn: %v", err)
	}
	if got := restored.Buildings(); len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("restored buildings: %v", got)
	}
}
