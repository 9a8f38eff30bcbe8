package embed

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rfgraph"
	"repro/internal/sampling"
)

// TestWarmStartMatchesBruteForce: a scan's ego vector starts at the
// weighted mean of the trained records two hops away, Σ w_sm·w_mr·ego_r /
// Σ w_sm·w_mr, with the scan's unknown MAC contributing nothing. A
// learning rate of 1e-15 keeps SGD from moving the vector measurably, so
// the returned ego is the start vector.
func TestWarmStartMatchesBruteForce(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 20, 3, 6)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	scan := dataset.Record{ID: "scan", Readings: []dataset.Reading{
		{MAC: "a0", RSS: -55}, {MAC: "never-seen", RSS: -40}, {MAC: "a3", RSS: -60},
	}}
	edges, err := g.ScanEdges(nil, &scan, nil)
	if err != nil {
		t.Fatalf("ScanEdges: %v", err)
	}
	if len(edges) != 2 {
		t.Fatalf("scan edges = %d, want 2 known MACs", len(edges))
	}
	want := make([]float64, emb.Dim)
	var total float64
	for _, rd := range scan.Readings {
		mid, ok := g.MACNode(rd.MAC)
		if !ok {
			continue
		}
		wsm := rd.RSS + rfgraph.DefaultOffset
		for _, he := range g.Neighbors(mid) {
			for d := range want {
				want[d] += wsm * he.Weight * emb.Ego[he.To][d]
			}
			total += wsm * he.Weight
		}
	}
	for d := range want {
		want[d] /= total
	}
	cfg := IncrementalConfig{Rounds: 1, LearningRate: 1e-15, NegativeSamples: 5, Seed: 3}
	neg := NewNegativeSampler(g, emb)
	got, err := EmbedScan(&Workspace{}, edges, emb, cfg, neg)
	if err != nil {
		t.Fatalf("EmbedScan: %v", err)
	}
	for d := range want {
		if math.Abs(got[d]-want[d]) > 1e-12 {
			t.Fatalf("start[%d] = %v, brute force %v", d, got[d], want[d])
		}
	}
}

// TestWarmStartTableDropsRemovedMAC: after RemoveMAC a rebuilt table no
// longer holds the tombstoned MAC's edges, and the other MACs' rows are
// untouched.
func TestWarmStartTableDropsRemovedMAC(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 10, 3, 7)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	before := NewNegativeSampler(g, emb)
	gone, _ := g.MACNode("a0")
	kept, _ := g.MACNode("a1")
	if err := g.RemoveMAC("a0"); err != nil {
		t.Fatalf("RemoveMAC: %v", err)
	}
	after := NewNegativeSampler(g, emb)
	row := func(n *NegativeSampler, m rfgraph.NodeID) []float64 {
		stride := emb.Dim + 1
		return n.warm[int(m)*stride : (int(m)+1)*stride]
	}
	if w := row(before, gone)[emb.Dim]; w == 0 {
		t.Fatal("a0 had no trained records before the removal")
	}
	for d, v := range row(after, gone) {
		if v != 0 {
			t.Fatalf("rebuilt table keeps removed MAC's row: [%d] = %v", d, v)
		}
	}
	start := make([]float64, emb.Dim)
	if after.warmStart(start, []rfgraph.Halfedge{{To: gone, Weight: 70}}) {
		t.Error("warm start found trained records through a removed MAC")
	}
	a, b := row(before, kept), row(after, kept)
	for d := range a {
		if a[d] != b[d] {
			t.Fatalf("removal changed a1's row at %d: %v -> %v", d, a[d], b[d])
		}
	}
}

// TestWarmStartStaleTableFallsBack: a table built before the scan's MACs
// existed has no rows for them, so the ego vector starts at the random
// point the seed picks. With no trained rows to pull on and no negatives,
// SGD leaves that start untouched.
func TestWarmStartStaleTableFallsBack(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 10, 3, 8)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	neg := NewNegativeSampler(g, emb)
	fresh := dataset.Record{ID: "fresh", Readings: []dataset.Reading{{MAC: "c0", RSS: -50}, {MAC: "c1", RSS: -62}}}
	if _, err := g.AddRecord(&fresh); err != nil {
		t.Fatalf("AddRecord: %v", err)
	}
	scan := dataset.Record{ID: "scan", Readings: []dataset.Reading{{MAC: "c1", RSS: -58}, {MAC: "c0", RSS: -44}}}
	edges, err := g.ScanEdges(nil, &scan, nil)
	if err != nil {
		t.Fatalf("ScanEdges: %v", err)
	}
	cfg := IncrementalConfig{Rounds: 3, LearningRate: 0.025, NegativeSamples: 0, Seed: 5}
	got, err := EmbedScan(&Workspace{}, edges, emb, cfg, neg)
	if err != nil {
		t.Fatalf("EmbedScan: %v", err)
	}
	want := make([]float64, emb.Dim)
	randomVectorInto(want, sampling.NewFast(sampling.NewSeeder(cfg.Seed).Next()))
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("start[%d] = %v, want the random start %v", d, got[d], want[d])
		}
	}
}
