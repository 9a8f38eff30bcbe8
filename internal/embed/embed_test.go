package embed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/rfgraph"
)

// twoFloorGraph builds a bipartite graph with two well-separated
// communities: records f0-* sense MACs a0..a5, records f1-* sense MACs
// b0..b5, with each record sensing a random subset so that records on the
// same floor often have NO direct MAC overlap — the multi-hop situation
// E-LINE is designed for.
func twoFloorGraph(t *testing.T, recordsPerFloor, macsPerRecord int, seed int64) (*rfgraph.Graph, []rfgraph.NodeID, []rfgraph.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := rfgraph.New(nil)
	var f0, f1 []rfgraph.NodeID
	const macsPerFloor = 6
	for f := 0; f < 2; f++ {
		prefix := "a"
		if f == 1 {
			prefix = "b"
		}
		for r := 0; r < recordsPerFloor; r++ {
			perm := rng.Perm(macsPerFloor)
			rec := dataset.Record{ID: fmt.Sprintf("f%d-%d", f, r)}
			for _, m := range perm[:macsPerRecord] {
				rec.Readings = append(rec.Readings, dataset.Reading{
					MAC: fmt.Sprintf("%s%d", prefix, m),
					RSS: -50 - rng.Float64()*30,
				})
			}
			id, err := g.AddRecord(&rec)
			if err != nil {
				t.Fatalf("AddRecord: %v", err)
			}
			if f == 0 {
				f0 = append(f0, id)
			} else {
				f1 = append(f1, id)
			}
		}
	}
	return g, f0, f1
}

// separation returns mean intra-community distance divided by mean
// inter-community distance of ego embeddings (lower is better).
func separation(emb *Embedding, f0, f1 []rfgraph.NodeID) float64 {
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < len(f0); i++ {
		for j := i + 1; j < len(f0); j++ {
			intra += linalg.Distance(emb.Ego[f0[i]], emb.Ego[f0[j]])
			nIntra++
		}
	}
	for i := 0; i < len(f1); i++ {
		for j := i + 1; j < len(f1); j++ {
			intra += linalg.Distance(emb.Ego[f1[i]], emb.Ego[f1[j]])
			nIntra++
		}
	}
	for _, a := range f0 {
		for _, b := range f1 {
			inter += linalg.Distance(emb.Ego[a], emb.Ego[b])
			nInter++
		}
	}
	return (intra / float64(nIntra)) / (inter / float64(nInter))
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero mode ok", func(c *Config) { c.Mode = 0 }, true},
		{"bad dim", func(c *Config) { c.Dim = 0 }, false},
		{"bad lr", func(c *Config) { c.LearningRate = -1 }, false},
		{"zero lr", func(c *Config) { c.LearningRate = 0 }, false},
		{"nan lr", func(c *Config) { c.LearningRate = math.NaN() }, false},
		{"inf lr", func(c *Config) { c.LearningRate = math.Inf(1) }, false},
		{"bad negatives", func(c *Config) { c.NegativeSamples = -1 }, false},
		{"bad samples", func(c *Config) { c.SamplesPerEdge = 0 }, false},
		{"bad dropout", func(c *Config) { c.Dropout = 1 }, false},
		{"negative dropout", func(c *Config) { c.Dropout = -0.1 }, false},
		{"nan dropout", func(c *Config) { c.Dropout = math.NaN() }, false},
		{"inf dropout", func(c *Config) { c.Dropout = math.Inf(1) }, false},
		{"zero dropout ok", func(c *Config) { c.Dropout = 0 }, true},
		{"bad mode", func(c *Config) { c.Mode = Mode(99) }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestIncrementalConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*IncrementalConfig)
		ok     bool
	}{
		{"default", func(c *IncrementalConfig) {}, true},
		{"one round", func(c *IncrementalConfig) { c.Rounds = 1 }, true},
		{"zero rounds", func(c *IncrementalConfig) { c.Rounds = 0 }, false},
		{"negative lr", func(c *IncrementalConfig) { c.LearningRate = -1 }, false},
		{"zero lr", func(c *IncrementalConfig) { c.LearningRate = 0 }, false},
		{"nan lr", func(c *IncrementalConfig) { c.LearningRate = math.NaN() }, false},
		{"inf lr", func(c *IncrementalConfig) { c.LearningRate = math.Inf(1) }, false},
		{"huge lr ok", func(c *IncrementalConfig) { c.LearningRate = 1e100 }, true},
		{"no negatives ok", func(c *IncrementalConfig) { c.NegativeSamples = 0 }, true},
		{"negative negatives", func(c *IncrementalConfig) { c.NegativeSamples = -1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultIncrementalConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestTrainEmptyGraph(t *testing.T) {
	g := rfgraph.New(nil)
	if _, err := TrainCtx(context.Background(), g, DefaultConfig()); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("error = %v, want ErrEmptyGraph", err)
	}
}

// TestTrainRejectsOverflowingSampleBudget: a sample budget an int cannot
// count used to wrap — 2^62 samples per edge (on 64-bit) over 32 directed
// edges to 0 samples, and a budget just under MaxInt to a negative chunk
// count — so the fit returned its untrained random start with no error.
func TestTrainRejectsOverflowingSampleBudget(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 4, 2, 1)
	edges := len(g.DirectedEdges())
	for _, spe := range []int{math.MaxInt/2 + 1, math.MaxInt / edges, math.MaxInt} {
		cfg := DefaultConfig()
		cfg.SamplesPerEdge = spe
		for _, kernel := range []bool{false, true} {
			emb, err := train(context.Background(), g, cfg, kernel)
			if err == nil || emb != nil {
				t.Errorf("%d samples per edge over %d edges, kernel=%v: got an embedding %v, error %v; want none and an error", spe, edges, kernel, emb != nil, err)
			}
		}
	}
}

func TestTrainSeparatesCommunities(t *testing.T) {
	g, f0, f1 := twoFloorGraph(t, 20, 3, 1)
	cfg := DefaultConfig()
	emb, err := TrainCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if sep := separation(emb, f0, f1); sep > 0.6 {
		t.Errorf("separation ratio %v too weak (want < 0.6)", sep)
	}
}

func TestTrainDeterministic(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 8, 3, 2)
	cfg := DefaultConfig()
	cfg.SamplesPerEdge = 20
	a, err := TrainCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	b, err := TrainCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for i := range a.Ego {
		for d := range a.Ego[i] {
			if a.Ego[i][d] != b.Ego[i][d] {
				t.Fatalf("ego[%d][%d] differs across identical seeds", i, d)
			}
		}
	}
}

// TestTrainCancelled: a fit under a cancelled context returns
// context.Canceled and no embedding.
func TestTrainCancelled(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 20, 3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emb, err := TrainCtx(ctx, g, DefaultConfig())
	if err != context.Canceled {
		t.Errorf("TrainCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if emb != nil {
		t.Error("cancelled TrainCtx returned an embedding")
	}
}

func TestTrainModes(t *testing.T) {
	for _, mode := range []Mode{ModeELINE, ModeLINESecond, ModeLINEFirst} {
		t.Run(mode.String(), func(t *testing.T) {
			g, f0, f1 := twoFloorGraph(t, 12, 3, 4)
			cfg := DefaultConfig()
			cfg.Mode = mode
			emb, err := TrainCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			if sep := separation(emb, f0, f1); sep > 0.9 {
				t.Errorf("%v separation ratio %v too weak", mode, sep)
			}
		})
	}
}

func TestTrainingReducesObjective(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 15, 3, 5)
	cfg := DefaultConfig()
	// Random embedding baseline: dim matches, one SGD sample total (≈ no
	// training).
	cfg2 := cfg
	cfg2.SamplesPerEdge = 1
	cfg2.Dropout = 0.99 // skip nearly everything
	randEmb, err := TrainCtx(context.Background(), g, cfg2)
	if err != nil {
		t.Fatalf("TrainCtx(random): %v", err)
	}
	emb, err := TrainCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	lossRand, err := Objective(g, randEmb, ModeELINE, 5, 99)
	if err != nil {
		t.Fatalf("Objective: %v", err)
	}
	lossTrained, err := Objective(g, emb, ModeELINE, 5, 99)
	if err != nil {
		t.Fatalf("Objective: %v", err)
	}
	if lossTrained >= lossRand {
		t.Errorf("training did not reduce loss: %v -> %v", lossRand, lossTrained)
	}
}

func TestModeString(t *testing.T) {
	if ModeELINE.String() != "e-line" || ModeLINESecond.String() != "line-2nd" || ModeLINEFirst.String() != "line-1st" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Errorf("unknown mode string = %q", Mode(42).String())
	}
}

func TestEmbedNewNode(t *testing.T) {
	g, f0, f1 := twoFloorGraph(t, 20, 3, 6)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	neg := NewNegativeSampler(g, emb)
	// A new record sensing floor-0 MACs should land near floor-0 records.
	rec := dataset.Record{ID: "new", Readings: []dataset.Reading{
		{MAC: "a0", RSS: -55}, {MAC: "a3", RSS: -60}, {MAC: "a5", RSS: -70},
	}}
	id, err := g.AddRecord(&rec)
	if err != nil {
		t.Fatalf("AddRecord: %v", err)
	}
	if err := EmbedNewNode(g, emb, id, DefaultIncrementalConfig(), neg); err != nil {
		t.Fatalf("EmbedNewNode: %v", err)
	}
	mean := func(ids []rfgraph.NodeID) float64 {
		var s float64
		for _, other := range ids {
			s += linalg.Distance(emb.Ego[id], emb.Ego[other])
		}
		return s / float64(len(ids))
	}
	if d0, d1 := mean(f0), mean(f1); d0 >= d1 {
		t.Errorf("new floor-0 record closer to floor 1: d0=%v d1=%v", d0, d1)
	}
}

func TestEmbedNewNodeWithNewMAC(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 10, 3, 7)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	neg := NewNegativeSampler(g, emb)
	// Record with one known and one never-seen MAC still embeds.
	rec := dataset.Record{ID: "new", Readings: []dataset.Reading{
		{MAC: "a0", RSS: -55}, {MAC: "brand-new-mac", RSS: -60},
	}}
	id, err := g.AddRecord(&rec)
	if err != nil {
		t.Fatalf("AddRecord: %v", err)
	}
	if err := EmbedNewNode(g, emb, id, DefaultIncrementalConfig(), neg); err != nil {
		t.Fatalf("EmbedNewNode: %v", err)
	}
	if emb.EgoOf(id) == nil {
		t.Fatal("new node has no embedding")
	}
}

// TestEmbedDetachedOverlay checks the read-only scan-embedding path:
// embedding a scan's edges against a frozen model must not mutate the
// embedding tables, and the ego-only fast path (EmbedScan) must agree
// with the ego of the ego+context computation bit for bit.
func TestEmbedDetachedOverlay(t *testing.T) {
	g, f0, f1 := twoFloorGraph(t, 20, 3, 6)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	neg := NewNegativeSampler(g, emb)
	rows := len(emb.Ego)
	snapshot := append([]float64(nil), emb.Ego[0]...)
	rec := dataset.Record{ID: "scan", Readings: []dataset.Reading{
		{MAC: "a0", RSS: -55}, {MAC: "a3", RSS: -60}, {MAC: "a5", RSS: -70},
	}}
	edges, err := g.ScanEdges(nil, &rec, nil)
	if err != nil {
		t.Fatalf("ScanEdges: %v", err)
	}
	cfg := DefaultIncrementalConfig()
	ego, ctx, err := embedEdges(&Workspace{}, edges, emb, cfg, neg, true)
	if err != nil {
		t.Fatalf("embedEdges: %v", err)
	}
	if len(ego) != emb.Dim || len(ctx) != emb.Dim {
		t.Fatalf("vector dims %d/%d, want %d", len(ego), len(ctx), emb.Dim)
	}
	if len(emb.Ego) != rows {
		t.Errorf("embedding the scan grew the table %d -> %d", rows, len(emb.Ego))
	}
	for d := range snapshot {
		if emb.Ego[0][d] != snapshot[d] {
			t.Fatal("embedding the scan mutated a frozen row")
		}
	}
	egoOnly, err := EmbedScan(&Workspace{}, edges, emb, cfg, neg)
	if err != nil {
		t.Fatalf("EmbedScan: %v", err)
	}
	for d := range ego {
		if ego[d] != egoOnly[d] {
			t.Fatalf("ego-only path diverges at dim %d: %v vs %v", d, ego[d], egoOnly[d])
		}
	}
	// The scan sensed floor-0 MACs, so it should land nearer floor 0.
	mean := func(ids []rfgraph.NodeID) float64 {
		var s float64
		for _, other := range ids {
			s += linalg.Distance(ego, emb.Ego[other])
		}
		return s / float64(len(ids))
	}
	if d0, d1 := mean(f0), mean(f1); d0 >= d1 {
		t.Errorf("floor-0 scan closer to floor 1: d0=%v d1=%v", d0, d1)
	}
}

// TestEmbedDetachedSharedSampler checks that a prebuilt NegativeSampler,
// already used by another scan, reproduces the result of one built on the
// fly for this scan exactly: embedding a scan leaves the sampler as it
// found it.
func TestEmbedDetachedSharedSampler(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 10, 3, 9)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	shared := NewNegativeSampler(g, emb)
	cfg := DefaultIncrementalConfig()
	other := dataset.Record{ID: "other", Readings: []dataset.Reading{{MAC: "b2", RSS: -58}, {MAC: "a4", RSS: -71}}}
	otherEdges, err := g.ScanEdges(nil, &other, nil)
	if err != nil {
		t.Fatalf("ScanEdges(other): %v", err)
	}
	if _, err := EmbedScan(&Workspace{}, otherEdges, emb, cfg, shared); err != nil {
		t.Fatalf("EmbedScan(other): %v", err)
	}
	rec := dataset.Record{ID: "scan", Readings: []dataset.Reading{{MAC: "a0", RSS: -50}}}
	edges, err := g.ScanEdges(nil, &rec, nil)
	if err != nil {
		t.Fatalf("ScanEdges: %v", err)
	}
	a, err := EmbedScan(&Workspace{}, edges, emb, cfg, shared)
	if err != nil {
		t.Fatalf("shared sampler: %v", err)
	}
	fresh := NewNegativeSampler(g, emb)
	b, err := EmbedScan(&Workspace{}, edges, emb, cfg, fresh)
	if err != nil {
		t.Fatalf("on-the-fly sampler: %v", err)
	}
	for d := range a {
		if a[d] != b[d] {
			t.Fatalf("sampler sharing changed result at dim %d", d)
		}
	}
}

func TestEmbedNewNodeErrors(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 5, 3, 8)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if err := EmbedNewNode(g, emb, rfgraph.NodeID(10_000), DefaultIncrementalConfig(), nil); err == nil {
		t.Error("expected error for unknown node")
	}
	bad := DefaultIncrementalConfig()
	bad.Rounds = 0
	if err := EmbedNewNode(g, emb, 0, bad, nil); err == nil {
		t.Error("expected error for invalid config")
	}
}

// TestEmptySamplerRefusesToEmbed: a graph whose every MAC is retired
// gives an empty sampler, and embedding against it is an error rather
// than a draw from no distribution.
func TestEmptySamplerRefusesToEmbed(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 5, 3, 8)
	emb, err := TrainCtx(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	rec := dataset.Record{ID: "scan", Readings: []dataset.Reading{{MAC: "a0", RSS: -50}}}
	edges, err := g.ScanEdges(nil, &rec, nil)
	if err != nil {
		t.Fatalf("ScanEdges: %v", err)
	}
	for _, id := range g.MACNodes() {
		if err := g.RemoveMAC(g.Name(id)); err != nil {
			t.Fatalf("RemoveMAC: %v", err)
		}
	}
	neg := NewNegativeSampler(g, emb)
	cfg := DefaultIncrementalConfig()
	if _, err := EmbedScan(&Workspace{}, edges, emb, cfg, neg); err == nil {
		t.Error("EmbedScan against an empty sampler succeeded")
	}
	id, err := g.AddRecord(&rec)
	if err != nil {
		t.Fatalf("AddRecord: %v", err)
	}
	if err := EmbedNewNode(g, emb, id, cfg, neg); err == nil {
		t.Error("EmbedNewNode against an empty sampler succeeded")
	}
}

func TestEmbeddingGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e, _, _ := newEmbedding(2, 4, rng)
	e.Grow(5, rng)
	if len(e.Ego) != 5 || len(e.Ctx) != 5 {
		t.Fatalf("grow to 5: ego=%d ctx=%d", len(e.Ego), len(e.Ctx))
	}
	e.Grow(3, rng) // no-op
	if len(e.Ego) != 5 {
		t.Error("Grow shrank the embedding")
	}
	if e.EgoOf(rfgraph.NodeID(99)) != nil {
		t.Error("EgoOf out of range should be nil")
	}
}

func TestModeLINEBoth(t *testing.T) {
	g, f0, f1 := twoFloorGraph(t, 15, 3, 9)
	cfg := DefaultConfig()
	cfg.Mode = ModeLINEBoth
	emb, err := TrainCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if emb.Dim != 2*cfg.Dim {
		t.Fatalf("concat dim = %d, want %d", emb.Dim, 2*cfg.Dim)
	}
	if got := len(emb.EgoOf(f0[0])); got != 2*cfg.Dim {
		t.Fatalf("ego length = %d, want %d", got, 2*cfg.Dim)
	}
	if sep := separation(emb, f0, f1); sep > 0.9 {
		t.Errorf("line-1st+2nd separation ratio %v too weak", sep)
	}
	if ModeLINEBoth.String() != "line-1st+2nd" {
		t.Errorf("mode string = %q", ModeLINEBoth.String())
	}
}

// Property: training on arbitrary small random bipartite graphs always
// yields finite embeddings for every live node.
func TestTrainFiniteProperty(t *testing.T) {
	f := func(spec [6]uint8, seed int64) bool {
		g := rfgraph.New(nil)
		for i, v := range spec {
			rec := dataset.Record{ID: fmt.Sprintf("r%d", i)}
			macs := int(v%4) + 1
			for m := 0; m < macs; m++ {
				rec.Readings = append(rec.Readings, dataset.Reading{
					MAC: fmt.Sprintf("m%d", (int(v)+m*3)%7),
					RSS: -40 - float64((int(v)*m)%50),
				})
			}
			if _, err := g.AddRecord(&rec); err != nil {
				return false
			}
		}
		cfg := DefaultConfig()
		cfg.SamplesPerEdge = 10
		cfg.Seed = seed
		emb, err := TrainCtx(context.Background(), g, cfg)
		if err != nil {
			return false
		}
		for id := 0; id < g.NumNodes(); id++ {
			for _, v := range emb.Ego[id] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
			for _, v := range emb.Ctx[id] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
