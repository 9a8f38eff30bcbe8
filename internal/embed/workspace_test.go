package embed

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestWorkspaceReuseParity: a workspace reused across many different scans
// must reproduce a fresh workspace's EmbedScan result bit for bit — no
// state may leak from one request into the next through the pooled
// buffers.
func TestWorkspaceReuseParity(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 20, 3, 6)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	neg := NewNegativeSampler(g, emb)
	scans := []dataset.Record{
		{ID: "s1", Readings: []dataset.Reading{{MAC: "a0", RSS: -55}, {MAC: "a3", RSS: -60}}},
		{ID: "s2", Readings: []dataset.Reading{{MAC: "b1", RSS: -48}}},
		{ID: "s3", Readings: []dataset.Reading{{MAC: "a5", RSS: -70}, {MAC: "b2", RSS: -52}, {MAC: "a1", RSS: -66}}},
	}
	cfg := DefaultIncrementalConfig()
	ws := &Workspace{}
	for round := 0; round < 3; round++ {
		for i := range scans {
			cfg.Seed = int64(round*10 + i)
			edges, err := g.ScanEdges(nil, &scans[i], nil)
			if err != nil {
				t.Fatalf("ScanEdges(%s): %v", scans[i].ID, err)
			}
			fresh, err := EmbedScan(&Workspace{}, edges, emb, cfg, neg)
			if err != nil {
				t.Fatalf("EmbedScan(%s): %v", scans[i].ID, err)
			}
			reused, err := EmbedScan(ws, edges, emb, cfg, neg)
			if err != nil {
				t.Fatalf("EmbedScan(%s) reused: %v", scans[i].ID, err)
			}
			for d := range fresh {
				if fresh[d] != reused[d] {
					t.Fatalf("scan %s round %d: reused workspace diverges at dim %d: %v vs %v",
						scans[i].ID, round, d, reused[d], fresh[d])
				}
			}
		}
	}
}

// TestWorkspaceConcurrentIndependence: distinct workspaces used from
// distinct goroutines against the same frozen model must not interfere
// (run under -race this also proves the shared model is never written).
func TestWorkspaceConcurrentIndependence(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 15, 3, 11)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	neg := NewNegativeSampler(g, emb)
	rec := dataset.Record{ID: "scan", Readings: []dataset.Reading{{MAC: "a0", RSS: -50}, {MAC: "b0", RSS: -64}}}
	edges, err := g.ScanEdges(nil, &rec, nil)
	if err != nil {
		t.Fatalf("ScanEdges: %v", err)
	}
	cfg := DefaultIncrementalConfig()
	want, err := EmbedScan(&Workspace{}, edges, emb, cfg, neg)
	if err != nil {
		t.Fatalf("EmbedScan: %v", err)
	}
	const workers = 8
	var wg sync.WaitGroup
	outs := make([][]float64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &Workspace{}
			for i := 0; i < 10; i++ {
				ego, err := EmbedScan(ws, edges, emb, cfg, neg)
				if err != nil {
					errs[w] = err
					return
				}
				outs[w] = append([]float64(nil), ego...)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for d := range want {
			if outs[w][d] != want[d] {
				t.Fatalf("worker %d diverges at dim %d", w, d)
			}
		}
	}
}
