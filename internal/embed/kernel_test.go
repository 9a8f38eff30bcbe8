package embed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rfgraph"
	"repro/internal/sampling"
	"repro/internal/simulate"
)

// campusGraph is the graph of the one building of simulate.Campus3F(40, 1).
func campusGraph(tb testing.TB) *rfgraph.Graph {
	tb.Helper()
	corpus, err := simulate.Generate(simulate.Campus3F(40, 1))
	if err != nil {
		tb.Fatalf("simulate: %v", err)
	}
	g := rfgraph.New(nil)
	records := corpus.Buildings[0].Records
	for i := range records {
		if _, err := g.AddRecord(&records[i]); err != nil {
			tb.Fatalf("AddRecord: %v", err)
		}
	}
	return g
}

// requireSameBits compares two embeddings bit for bit, so a -0 against a
// +0 or two different NaNs fail too.
func requireSameBits(t *testing.T, want, got *Embedding, label string) {
	t.Helper()
	if len(want.Ego) != len(got.Ego) || len(want.Ctx) != len(got.Ctx) {
		t.Fatalf("%s: embedding shapes differ", label)
	}
	for _, tab := range []struct {
		name      string
		want, got [][]float64
	}{{"ego", want.Ego, got.Ego}, {"ctx", want.Ctx, got.Ctx}} {
		for i := range tab.want {
			for d := range tab.want[i] {
				if math.Float64bits(tab.want[i][d]) != math.Float64bits(tab.got[i][d]) {
					t.Fatalf("%s: %s[%d][%d] = %v, want %v", label, tab.name, i, d, tab.got[i][d], tab.want[i][d])
				}
			}
		}
	}
}

// skipWithoutAVX2 skips the kernel leg of a test where elineDraw and
// elineApply cannot run.
func skipWithoutAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("CPUID/XGETBV report no AVX2 with OS-saved YMM state: the training kernels never run on this CPU")
	}
}

// sampleTables is a dim-8 embedding of n nodes laid out as newEmbedding
// lays it out, so elineApply can address it.
type sampleTables struct {
	emb      *Embedding
	ego, ctx []float64
}

func newSampleTables(n int, rng *rand.Rand) *sampleTables {
	emb, ego, ctx := newEmbedding(n, 8, rng)
	for k := range ctx {
		ctx[k] = (rng.Float64() - 0.5) / 8
	}
	return &sampleTables{emb: emb, ego: ego, ctx: ctx}
}

func (s *sampleTables) clone() *sampleTables {
	c := &sampleTables{
		emb: &Embedding{Dim: 8, Ego: make([][]float64, len(s.emb.Ego)), Ctx: make([][]float64, len(s.emb.Ctx))},
		ego: append([]float64(nil), s.ego...),
		ctx: append([]float64(nil), s.ctx...),
	}
	for i := range c.emb.Ego {
		c.emb.Ego[i] = c.ego[i*8 : (i+1)*8 : (i+1)*8]
		c.emb.Ctx[i] = c.ctx[i*8 : (i+1)*8 : (i+1)*8]
	}
	return c
}

// applyGo applies one E-LINE sample the way runChunk's Go loop does.
func (s *sampleTables) applyGo(i, j rfgraph.NodeID, zs []rfgraph.NodeID, lr float64) bool {
	t := &trainer{emb: s.emb}
	ws := newTrainScratch(Config{Dim: 8, NegativeSamples: len(zs)}, false)
	copy(ws.zbuf, zs)
	return t.elineGo(i, j, lr, ws)
}

// applyKernel applies the same sample with elineApply, as a one-sample
// buffer, and reports whether it applied it.
func (s *sampleTables) applyKernel(i, j rfgraph.NodeID, zs []rfgraph.NodeID, lr float64) bool {
	ws := newTrainScratch(Config{Dim: 8, NegativeSamples: len(zs)}, false)
	buf := append([]rfgraph.NodeID{i, j}, zs...)
	return elineApply(s.ego, s.ctx, buf, len(buf), -lr, ws.gs) == 1
}

// drawGo draws chunk c of a run's sample stream as runChunk's Go loop
// does, and returns its kept samples laid out as elineDraw writes them.
func drawGo(tc *trainContext, cfg Config, chunkBase int64, c, n int) []rfgraph.NodeID {
	rng := sampling.NewFast(sampling.SeedAt(chunkBase, c))
	var out []rfgraph.NodeID
	for s := 0; s < n; s++ {
		if cfg.Dropout > 0 && rng.Float64() < cfg.Dropout {
			continue
		}
		e := tc.edges[tc.edgeDist.DrawFast(rng)]
		out = append(out, e.Src, e.Dst)
		for k := 0; k < cfg.NegativeSamples; k++ {
			out = append(out, tc.negNodes[tc.negDist.DrawFast(rng)])
		}
	}
	return out
}

// TestELINEKernelMatchesGo pins the AVX2 E-LINE training kernels to the
// Go loop bit for bit: elineDraw to its draws, elineApply to the Go
// kernels' updates. Each case runs the Go path first — a whole fit,
// checked against the serial reference, a chunk's draws, or crafted
// samples — and then the kernel on the same input. Only the kernel leg
// skips, on a CPU without AVX2.
func TestELINEKernelMatchesGo(t *testing.T) {
	twoFloor, _, _ := twoFloorGraph(t, 20, 3, 3)
	// Two records of two MACs each: six nodes, so a negative draw is
	// often i (the kernel declines), often j, and often a repeat.
	tiny, _, _ := twoFloorGraph(t, 1, 2, 5)
	graphs := []struct {
		name string
		g    *rfgraph.Graph
	}{{"two-floor", twoFloor}, {"tiny", tiny}}

	t.Run("fits", func(t *testing.T) {
		for _, gc := range graphs {
			for _, dropout := range []float64{0, 0.1} {
				for _, negatives := range []int{0, 1, 5, 20} {
					name := fmt.Sprintf("%s/dropout%v/k%d", gc.name, dropout, negatives)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig()
						cfg.SamplesPerEdge = 25
						cfg.Seed = 42
						cfg.Dropout = dropout
						cfg.NegativeSamples = negatives
						want, err := train(context.Background(), gc.g, cfg, false)
						if err != nil {
							t.Fatalf("Go path: %v", err)
						}
						requireSameBits(t, referenceTrain(t, gc.g, cfg), want, "Go path vs serial reference")
						t.Run("kernel", func(t *testing.T) {
							skipWithoutAVX2(t)
							if !usesKernel(cfg) {
								t.Fatal("this fit takes the Go loop even with AVX2")
							}
							got, err := train(context.Background(), gc.g, cfg, true)
							if err != nil {
								t.Fatalf("kernel: %v", err)
							}
							requireSameBits(t, want, got, "kernel vs Go path")
						})
					})
				}
			}
		}
	})

	// Draws: every chunk of a run, the final one partial, must fill the
	// buffer with the Go loop's kept samples, entry for entry.
	t.Run("draws", func(t *testing.T) {
		skipWithoutAVX2(t)
		const chunkBase = 7
		for _, gc := range graphs {
			tc, err := buildTrainContext(gc.g)
			if err != nil {
				t.Fatal(err)
			}
			for _, dropout := range []float64{0, 0.1} {
				for _, negatives := range []int{0, 1, 5, 20} {
					cfg := DefaultConfig()
					cfg.SamplesPerEdge = 129
					cfg.Dropout = dropout
					cfg.NegativeSamples = negatives
					total := cfg.SamplesPerEdge * len(tc.edges)
					if total < chunkSamples || total%chunkSamples == 0 {
						t.Fatalf("%s: %d samples are not full chunks and a partial one", gc.name, total)
					}
					tab := newDrawTables(tc, cfg)
					stride := negatives + 2
					buf := make([]rfgraph.NodeID, chunkSamples*stride)
					for c := 0; c*chunkSamples < total; c++ {
						n := min(chunkSamples, total-c*chunkSamples)
						want := drawGo(tc, cfg, chunkBase, c, n)
						got := buf[:elineDraw(tab, sampling.SeedAt(chunkBase, c), n, buf[:n*stride])]
						if !slices.Equal(got, want) {
							t.Fatalf("%s/dropout%v/k%d chunk %d of %d samples: kernel drew %d entries, Go %d, first difference at %d",
								gc.name, dropout, negatives, c, n, len(got), len(want), firstDiff(got, want))
						}
					}
				}
			}
		}
	})

	// Crafted samples: i = 0 and j = 1; negatives 2 (twice), 3 and 1 (= j).
	// Node 0 holds src as ego and context, and nodes 1 and 3 hold row as
	// context and ego, so in both directions the positive dot product and
	// the negative one of node 3 are dot8(src, row).
	const lr = 0.025
	nextUp := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	nextDown := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	step := 2 * sigmoidBound / sigmoidSize
	oneHot := func(a, b float64) (src, row [8]float64) {
		src[0], row[0] = a, b
		return src, row
	}
	// With u the spacing of floats at 9 and v = 0.6u, 9 - 2u plus v in
	// lanes 1 and 5 sums to 9 in dot8's tree but to 9 - u if lanes 1 and
	// 5 are added first; v in lanes 4 and 5 sums to 9 - u in the tree but
	// to 9 left to right.
	u := math.Ldexp(1, -49)
	lanes := func(vals map[int]float64) (src, row [8]float64) {
		for d, v := range vals {
			src[d], row[d] = v, 1
		}
		return src, row
	}
	type sample struct {
		name     string
		src, row [8]float64
	}
	var samples []sample
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"+9", 3, 3},
		{"-9", 3, -3},
		{"above+9", nextUp(9), 1},
		{"below+9", nextDown(9), 1},
		{"above-9", nextUp(-9), 1},
		{"below-9", nextDown(-9), 1},
		{"+Inf", 1e200, 1e200},
		{"-Inf", 1e200, -1e200},
		{"first-bin", -sigmoidBound + step/4, 1},
		{"last-bin", sigmoidBound - step/4, 1},
		{"zero", 0, 1},
		{"mid", 0.37, -1.9},
	} {
		src, row := oneHot(c.a, c.b)
		samples = append(samples, sample{c.name, src, row})
	}
	for _, sign := range []float64{1, -1} {
		src, row := lanes(map[int]float64{0: sign * (9 - 2*u), 1: sign * 0.6 * u, 5: sign * 0.6 * u})
		samples = append(samples, sample{fmt.Sprintf("tree-pairs-%+.0f", sign), src, row})
		src, row = lanes(map[int]float64{0: sign * (9 - 2*u), 4: sign * 0.6 * u, 5: sign * 0.6 * u})
		samples = append(samples, sample{fmt.Sprintf("tree-halves-%+.0f", sign), src, row})
	}
	zs := []rfgraph.NodeID{2, 3, 1, 2}
	for _, sc := range samples {
		t.Run("sample/"+sc.name, func(t *testing.T) {
			base := newSampleTables(5, rand.New(rand.NewSource(7)))
			copy(base.emb.Ego[0], sc.src[:])
			copy(base.emb.Ctx[0], sc.src[:])
			for _, n := range []int{1, 3} {
				copy(base.emb.Ctx[n], sc.row[:])
				copy(base.emb.Ego[n], sc.row[:])
			}
			want := base.clone()
			if !want.applyGo(0, 1, zs, lr) {
				t.Fatal("Go path reported a NaN dot product")
			}
			t.Run("kernel", func(t *testing.T) {
				skipWithoutAVX2(t)
				got := base.clone()
				if !got.applyKernel(0, 1, zs, lr) {
					t.Fatal("kernel declined a sample with no node equal to i and no NaN")
				}
				requireSameBits(t, want.emb, got.emb, sc.name)
			})
		})
	}

	// Declines: the kernel applies nothing of the sample and writes
	// nothing.
	declines := []struct {
		name    string
		zs      []rfgraph.NodeID
		mutate  func(*sampleTables)
		goApply bool // whether the Go path applies the sample
	}{
		{"negative-is-i", []rfgraph.NodeID{2, 0, 3}, func(*sampleTables) {}, true},
		{"nan-first-direction", []rfgraph.NodeID{2, 3}, func(s *sampleTables) { s.emb.Ctx[3][5] = math.NaN() }, false},
		{"nan-second-direction", []rfgraph.NodeID{2, 3}, func(s *sampleTables) { s.emb.Ego[2][4] = math.NaN() }, false},
		{"inf-times-zero", []rfgraph.NodeID{2}, func(s *sampleTables) { s.emb.Ego[0][6], s.emb.Ctx[1][6] = math.Inf(1), 0 }, false},
	}
	for _, dc := range declines {
		t.Run("decline/"+dc.name, func(t *testing.T) {
			base := newSampleTables(5, rand.New(rand.NewSource(11)))
			dc.mutate(base)
			if got := base.clone().applyGo(0, 1, dc.zs, lr); got != dc.goApply {
				t.Fatalf("Go path applied = %v, want %v", got, dc.goApply)
			}
			t.Run("kernel", func(t *testing.T) {
				skipWithoutAVX2(t)
				got := base.clone()
				if got.applyKernel(0, 1, dc.zs, lr) {
					t.Fatal("kernel applied the sample, want a decline")
				}
				requireSameBits(t, base.emb, got.emb, "declined sample")
			})
		})
	}

	// A chunk whose samples decline in the middle and at the end:
	// applySamples applies every sample, in order, as the Go loop does.
	t.Run("decline-at-chunk-end", func(t *testing.T) {
		skipWithoutAVX2(t)
		base := newSampleTables(6, rand.New(rand.NewSource(13)))
		buf := []rfgraph.NodeID{
			0, 1, 2, 3, 4,
			2, 3, 1, 2, 0, // a negative equals i = 2
			4, 5, 1, 1, 5,
			1, 2, 3, 0, 1, // a negative equals i = 1: the chunk's last sample
		}
		const stride = 5
		gs := newTrainScratch(Config{Dim: 8, NegativeSamples: stride - 2}, false).gs
		if c := base.clone(); elineApply(c.ego, c.ctx, buf, stride, -lr, gs) != 1 {
			t.Fatal("elineApply did not stop at the second sample")
		}
		if c := base.clone(); elineApply(c.ego, c.ctx, buf[3*stride:], stride, -lr, gs) != 0 {
			t.Fatal("elineApply applied the declining last sample")
		}
		want := base.clone()
		for s := 0; s < len(buf); s += stride {
			if !want.applyGo(buf[s], buf[s+1], buf[s+2:s+stride], lr) {
				t.Fatalf("Go path reported a NaN dot product at sample %d", s/stride)
			}
		}
		got := base.clone()
		tr := &trainer{emb: got.emb, ego: got.ego, ctx: got.ctx, cfg: Config{Dim: 8, NegativeSamples: stride - 2}}
		if !tr.applySamples(buf, lr, newTrainScratch(tr.cfg, true)) {
			t.Fatal("applySamples reported a NaN dot product")
		}
		requireSameBits(t, want.emb, got.emb, "chunk with declines")
	})

	// Random samples over random tables: values from well inside the
	// sigmoid's range to far past its saturation, any number of
	// negatives, and nodes drawn from a few, so repeats, negatives equal
	// to j and to i, and j equal to i all occur.
	t.Run("random-samples", func(t *testing.T) {
		skipWithoutAVX2(t)
		rng := rand.New(rand.NewSource(3))
		scales := []float64{0.05, 0.5, 2, 6}
		for s := 0; s < 5000; s++ {
			n := 2 + rng.Intn(9)
			base := newSampleTables(n, rng)
			for k := range base.ego {
				base.ego[k] = rng.NormFloat64() * scales[rng.Intn(len(scales))]
				base.ctx[k] = rng.NormFloat64() * scales[rng.Intn(len(scales))]
			}
			i, j := rfgraph.NodeID(rng.Intn(n)), rfgraph.NodeID(rng.Intn(n))
			zs := make([]rfgraph.NodeID, rng.Intn(21))
			declines := i == j
			for k := range zs {
				zs[k] = rfgraph.NodeID(rng.Intn(n))
				declines = declines || zs[k] == i
			}
			got := base.clone()
			if applied := got.applyKernel(i, j, zs, lr); applied == declines {
				t.Fatalf("sample %d (i=%d j=%d zs=%v): kernel applied = %v", s, i, j, zs, applied)
			}
			want := base
			if !declines {
				want = base.clone()
				want.applyGo(i, j, zs, lr)
			}
			requireSameBits(t, want.emb, got.emb, fmt.Sprintf("sample %d (i=%d j=%d zs=%v)", s, i, j, zs))
		}
	})
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []rfgraph.NodeID) int {
	for k := range a {
		if k >= len(b) || a[k] != b[k] {
			return k
		}
	}
	return len(a)
}

// TestTrainDivergedReturnsError: a learning rate far too large drives the
// fit to non-finite values, which TrainCtx reports as ErrDiverged with no
// embedding on the kernel path and the Go path alike: on a Campus3F
// building a dot product turns NaN (which used to panic on a NaN sigmoid
// index), and a one-pass fit of a small graph ends holding ±Inf before
// any dot product is NaN.
func TestTrainDivergedReturnsError(t *testing.T) {
	campus := DefaultConfig()
	campus.LearningRate = 1
	short := DefaultConfig()
	short.LearningRate, short.SamplesPerEdge, short.NegativeSamples = 1e100, 1, 0
	small, _, _ := twoFloorGraph(t, 4, 2, 1)
	for _, tc := range []struct {
		name string
		g    *rfgraph.Graph
		cfg  Config
	}{{"nan-dot", campusGraph(t), campus}, {"inf-at-end", small, short}} {
		for _, avx2 := range []bool{false, true} {
			emb, err := train(context.Background(), tc.g, tc.cfg, avx2)
			if !errors.Is(err, ErrDiverged) || emb != nil {
				t.Errorf("%s, avx2=%v: got an embedding %v, error %v; want none and ErrDiverged", tc.name, avx2, emb != nil, err)
			}
		}
	}
}

// BenchmarkTrainELINE trains one Campus3F(40) building at the default
// hyperparameters through the AVX2 kernels and through the Go loop.
func BenchmarkTrainELINE(b *testing.B) {
	g := campusGraph(b)
	for _, leg := range []struct {
		name string
		avx2 bool
	}{{"kernel", true}, {"go", false}} {
		b.Run(leg.name, func(b *testing.B) {
			if leg.avx2 && !hasAVX2 {
				b.Skip("no AVX2")
			}
			for n := 0; n < b.N; n++ {
				if _, err := train(context.Background(), g, DefaultConfig(), leg.avx2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
