package embed

import (
	"context"
	"testing"

	"repro/internal/rfgraph"
	"repro/internal/sampling"
)

// This file pins the determinism contract (docs/determinism.md): a fit
// must be bit-identical to a plain serial re-implementation of the
// canonical sample stream, for every dimension (fused dim-8 kernel and
// generic path alike), and Config.Strategy must not change a bit.

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
	emb := newEmbedding(g.NumNodes(), cfg.Dim, seeder.NextRand())
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
			got, err := Train(g, cfg)
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
