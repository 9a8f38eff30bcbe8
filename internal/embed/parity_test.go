package embed

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rfgraph"
	"repro/internal/sampling"
)

// This file pins the determinism contract (docs/determinism.md): a fit
// must be bit-identical to a plain serial re-implementation of the
// canonical sample stream, for every dimension (fused dim-8 kernel and
// generic path alike), Config.Strategy must not change a bit, and online
// inference must be bit-identical to a serial re-implementation of the
// classify step.

// referenceTrain re-implements the canonical training semantics with
// deliberately naive code: explicit chunk loop, fresh RNG per chunk,
// plain interleaved update loops. It shares only the sigmoid table and
// the alias samplers with production; the chunking, seeding, learning
// rate schedule, negative-batch sharing, and update application are all
// independent, so divergence in any of them fails the bit comparison.
func referenceTrain(t *testing.T, g *rfgraph.Graph, cfg Config) *Embedding {
	t.Helper()
	tc, err := buildTrainContext(g)
	if err != nil {
		t.Fatalf("buildTrainContext: %v", err)
	}
	seeder := sampling.NewSeeder(cfg.Seed)
	emb, _, _ := newEmbedding(g.NumNodes(), cfg.Dim, seeder.NextRand())
	chunkBase := seeder.Next()
	total := cfg.SamplesPerEdge * len(tc.edges)
	zs := make([]rfgraph.NodeID, cfg.NegativeSamples)
	gs := make([]float64, cfg.NegativeSamples+1)
	rows := make([][]float64, cfg.NegativeSamples+1)
	grad := make([]float64, cfg.Dim)
	mode := cfg.mode()
	for c := 0; c*chunkSamples < total; c++ {
		rng := sampling.NewFast(sampling.SeedAt(chunkBase, c))
		lr := cfg.LearningRate * (1 - float64(c*chunkSamples)/float64(total))
		if min := cfg.LearningRate * 1e-4; lr < min {
			lr = min
		}
		hi := (c + 1) * chunkSamples
		if hi > total {
			hi = total
		}
		for s := c * chunkSamples; s < hi; s++ {
			if cfg.Dropout > 0 && rng.Float64() < cfg.Dropout {
				continue
			}
			e := tc.edges[tc.edgeDist.DrawFast(rng)]
			i, j := e.Src, e.Dst
			for k := range zs {
				zs[k] = tc.negNodes[tc.negDist.DrawFast(rng)]
			}
			switch mode {
			case ModeLINEFirst:
				refUpdate(emb.Ego[i], emb.Ego, j, zs, lr, gs, rows, grad)
			case ModeLINESecond:
				refUpdate(emb.Ego[i], emb.Ctx, j, zs, lr, gs, rows, grad)
			default:
				refUpdate(emb.Ego[i], emb.Ctx, j, zs, lr, gs, rows, grad)
				refUpdate(emb.Ctx[i], emb.Ego, j, zs, lr, gs, rows, grad)
			}
		}
	}
	return emb
}

// refDot mirrors the contract's canonical dot-product association (the
// dim-8 pairwise tree, four accumulators otherwise) in standalone code.
func refDot(a, b []float64) float64 {
	if len(a) == 8 {
		return ((a[0]*b[0] + a[1]*b[1]) + (a[2]*b[2] + a[3]*b[3])) +
			((a[4]*b[4] + a[5]*b[5]) + (a[6]*b[6] + a[7]*b[7]))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// refUpdate applies one staged negative-sampled update with plain loops:
// all step coefficients computed against the frozen source first, then
// rows and source moved.
func refUpdate(source []float64, table [][]float64, j rfgraph.NodeID, zs []rfgraph.NodeID, lr float64, gs []float64, rows [][]float64, grad []float64) {
	gs[0] = -lr * (sigmoid(refDot(source, table[j])) - 1)
	rows[0] = table[j]
	n := 1
	for _, z := range zs {
		if z == j {
			continue
		}
		gs[n] = -lr * sigmoid(refDot(source, table[z]))
		rows[n] = table[z]
		n++
	}
	grad = grad[:len(source)]
	for d := range grad {
		grad[d] = 0
	}
	for k := 0; k < n; k++ {
		g := gs[k]
		row := rows[k]
		for d := range row {
			grad[d] += g * row[d]
			row[d] += g * source[d]
		}
	}
	for d := range source {
		source[d] += grad[d]
	}
}

func requireBitIdentical(t *testing.T, want, got *Embedding, label string) {
	t.Helper()
	if len(want.Ego) != len(got.Ego) || len(want.Ctx) != len(got.Ctx) {
		t.Fatalf("%s: embedding shapes differ", label)
	}
	for i := range want.Ego {
		for d := range want.Ego[i] {
			if want.Ego[i][d] != got.Ego[i][d] {
				t.Fatalf("%s: ego[%d][%d] = %v, want %v", label, i, d, got.Ego[i][d], want.Ego[i][d])
			}
		}
		for d := range want.Ctx[i] {
			if want.Ctx[i][d] != got.Ctx[i][d] {
				t.Fatalf("%s: ctx[%d][%d] = %v, want %v", label, i, d, got.Ctx[i][d], want.Ctx[i][d])
			}
		}
	}
}

func TestParityMatchesSerialReference(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 10, 3, 7)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"eline-dim8", func(c *Config) {}},
		{"eline-dim5", func(c *Config) { c.Dim = 5 }},
		{"line2nd-dim8", func(c *Config) { c.Mode = ModeLINESecond }},
		{"line1st-dim8", func(c *Config) { c.Mode = ModeLINEFirst }},
		{"no-dropout", func(c *Config) { c.Dropout = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SamplesPerEdge = 25
			cfg.Seed = 42
			tc.mut(&cfg)
			want := referenceTrain(t, g, cfg)
			got, err := TrainCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			requireBitIdentical(t, want, got, tc.name)
		})
	}
}

// TestFastMatchesParity pins that Config.Strategy is ignored: two fits
// under StrategyFast, which production configurations still set, are
// bit-identical to each other and to a StrategyParity fit, whatever
// GOMAXPROCS is. CI runs it under -race at -cpu 1,4.
func TestFastMatchesParity(t *testing.T) {
	g, _, _ := twoFloorGraph(t, 20, 3, 3)
	ctx := context.Background()
	cfg := DefaultConfig()
	parity, err := TrainCtx(ctx, g, cfg)
	if err != nil {
		t.Fatalf("TrainCtx(parity): %v", err)
	}
	cfg.Strategy = StrategyFast
	first, err := TrainCtx(ctx, g, cfg)
	if err != nil {
		t.Fatalf("TrainCtx(fast): %v", err)
	}
	second, err := TrainCtx(ctx, g, cfg)
	if err != nil {
		t.Fatalf("TrainCtx(fast): %v", err)
	}
	requireBitIdentical(t, first, second, "fast rerun")
	requireBitIdentical(t, parity, first, "fast vs parity")
}

// referenceOnline re-implements one online-inference step (§V-A) for a
// scan against the frozen model of g, with deliberately naive code: the
// reading dedup, the deg^{3/4} negative distribution, the per-MAC
// warm-start sums and the two-hop start vector, the seeder/Fast draw
// order, and the staged frozen updates. Like referenceTrain it shares
// only the sigmoid table and the alias samplers with production. It
// assumes g weighs edges with the default f(RSS) = RSS + 120.
func referenceOnline(t *testing.T, g *rfgraph.Graph, emb *Embedding, scan *dataset.Record, cfg IncrementalConfig) []float64 {
	t.Helper()
	trained := len(emb.Ego)
	// Strongest RSS per MAC, in first-reading order; MACs the graph has
	// never seen carry no edge.
	var macs []string
	best := map[string]float64{}
	for _, rd := range scan.Readings {
		cur, ok := best[rd.MAC]
		if !ok {
			macs = append(macs, rd.MAC)
		}
		if !ok || rd.RSS > cur {
			best[rd.MAC] = rd.RSS
		}
	}
	var to []rfgraph.NodeID
	var weights []float64
	for _, mac := range macs {
		if m, ok := g.MACNode(mac); ok {
			to = append(to, m)
			weights = append(weights, best[mac]+rfgraph.DefaultOffset)
		}
	}
	// Negatives: live trained nodes with an edge, drawn ∝ wdeg^{3/4}.
	var negNodes []rfgraph.NodeID
	var negWeights []float64
	for n := 0; n < trained; n++ {
		id := rfgraph.NodeID(n)
		if g.Alive(id) && g.Degree(id) > 0 {
			negNodes = append(negNodes, id)
			negWeights = append(negWeights, math.Pow(g.WeightedDegree(id), 0.75))
		}
	}
	negDist, err := sampling.NewAlias(negWeights)
	if err != nil {
		t.Fatalf("negative alias: %v", err)
	}
	// Start vector: Σ_m w_sm·A_m / Σ_m w_sm·W_m, where A_m sums w_mr·ego_r
	// and W_m sums w_mr over m's trained record neighbours r.
	seeder := sampling.NewSeeder(cfg.Seed)
	initSeed := seeder.Next()
	ego := make([]float64, emb.Dim)
	var total float64
	for e, m := range to {
		if int(m) >= trained {
			continue
		}
		a := make([]float64, emb.Dim)
		var w float64
		for _, he := range g.Neighbors(m) {
			if int(he.To) >= trained {
				continue
			}
			for d := range a {
				a[d] += he.Weight * emb.Ego[he.To][d]
			}
			w += he.Weight
		}
		for d := range ego {
			ego[d] += weights[e] * a[d]
		}
		total += weights[e] * w
	}
	if total != 0 {
		for d := range ego {
			ego[d] /= total
		}
	} else {
		rng := sampling.NewFast(initSeed)
		for d := range ego {
			ego[d] = (rng.Float64() - 0.5) / float64(emb.Dim)
		}
	}
	// SGD on the scan's own edges against the frozen context table: all
	// step coefficients against the unchanged ego first, then applied.
	rng := sampling.NewFast(seeder.Next())
	edgeDist, err := sampling.NewAlias(weights)
	if err != nil {
		t.Fatalf("edge alias: %v", err)
	}
	zs := make([]rfgraph.NodeID, cfg.NegativeSamples)
	for r := 0; r < cfg.Rounds; r++ {
		for s := 0; s < len(to); s++ {
			j := to[edgeDist.DrawFast(rng)]
			for k := range zs {
				zs[k] = negNodes[negDist.DrawFast(rng)]
			}
			var gs []float64
			var rows [][]float64
			if int(j) < len(emb.Ctx) {
				gs = append(gs, -cfg.LearningRate*(sigmoid(refDot(ego, emb.Ctx[j]))-1))
				rows = append(rows, emb.Ctx[j])
			}
			for _, z := range zs {
				if z == j {
					continue
				}
				gs = append(gs, -cfg.LearningRate*sigmoid(refDot(ego, emb.Ctx[z])))
				rows = append(rows, emb.Ctx[z])
			}
			for k := range gs {
				for d := range ego {
					ego[d] += gs[k] * rows[k][d]
				}
			}
		}
	}
	return ego
}

// TestOnlineMatchesSerialReference pins online inference bit for bit:
// the production classify step equals referenceOnline for scans with a
// duplicate reading, a never-seen MAC, cross-floor MACs, and a MAC the
// graph gained after training (no trained row: no start-vector weight,
// no positive term), at dim 8 (fused kernel) and dim 5 (generic path),
// with the default round budget and with 20 rounds, so the multi-round
// loop stays pinned whatever the default.
func TestOnlineMatchesSerialReference(t *testing.T) {
	scans := []dataset.Record{
		{ID: "floor0", Readings: []dataset.Reading{{MAC: "a0", RSS: -55}, {MAC: "a3", RSS: -60}, {MAC: "a5", RSS: -70}}},
		{ID: "dup-and-unknown", Readings: []dataset.Reading{
			{MAC: "b1", RSS: -80}, {MAC: "never-seen", RSS: -40}, {MAC: "b4", RSS: -62}, {MAC: "b1", RSS: -51}, {MAC: "b4", RSS: -75},
		}},
		{ID: "cross-floor", Readings: []dataset.Reading{{MAC: "a2", RSS: -66}, {MAC: "b2", RSS: -58}}},
		{ID: "untrained-mac", Readings: []dataset.Reading{{MAC: "c0", RSS: -45}, {MAC: "a1", RSS: -72}}},
		{ID: "only-untrained", Readings: []dataset.Reading{{MAC: "c0", RSS: -50}}},
	}
	for _, dim := range []int{8, 5} {
		g, _, _ := twoFloorGraph(t, 12, 3, 4)
		cfg := DefaultConfig()
		cfg.Dim = dim
		cfg.SamplesPerEdge = 20
		emb, err := TrainCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		// A record the graph gains after the fit brings MAC c0, which
		// has no trained row.
		late := dataset.Record{ID: "late", Readings: []dataset.Reading{{MAC: "c0", RSS: -48}, {MAC: "a4", RSS: -61}}}
		if _, err := g.AddRecord(&late); err != nil {
			t.Fatalf("AddRecord: %v", err)
		}
		neg := NewNegativeSampler(g, emb)
		for _, rounds := range []int{DefaultIncrementalConfig().Rounds, 20} {
			for i := range scans {
				for _, seed := range []int64{1, 7, 1 << 40} {
					inc := DefaultIncrementalConfig()
					inc.Rounds = rounds
					inc.Seed = seed
					want := referenceOnline(t, g, emb, &scans[i], inc)
					got := onlineEgo(t, g, emb, neg, &scans[i], inc)
					for d := range want {
						if got[d] != want[d] {
							t.Fatalf("dim %d, %d rounds, scan %s seed %d: ego[%d] = %v, reference %v",
								dim, rounds, scans[i].ID, seed, d, got[d], want[d])
						}
					}
				}
			}
		}
	}
}

// onlineEgo runs the production classify step for scan.
func onlineEgo(t *testing.T, g *rfgraph.Graph, emb *Embedding, neg *NegativeSampler, scan *dataset.Record, cfg IncrementalConfig) []float64 {
	t.Helper()
	edges, err := g.ScanEdges(nil, scan, nil)
	if err != nil {
		t.Fatalf("ScanEdges(%s): %v", scan.ID, err)
	}
	ego, err := EmbedScan(&Workspace{}, edges, emb, cfg, neg)
	if err != nil {
		t.Fatalf("EmbedScan(%s): %v", scan.ID, err)
	}
	return ego
}
