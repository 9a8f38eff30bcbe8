package embed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rfgraph"
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

// skipWithoutAVX2 skips the kernel leg of a test where elineStep8 cannot
// run.
func skipWithoutAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("CPUID/XGETBV report no AVX2 with OS-saved YMM state: elineStep8 never runs on this CPU")
	}
}

// sampleTables is a dim-8 embedding of n nodes laid out as newEmbedding
// lays it out, so elineStep8 can address it.
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

// applyGo applies one E-LINE sample the way runChunk's Go path does.
func (s *sampleTables) applyGo(i, j rfgraph.NodeID, zs []rfgraph.NodeID, lr float64) bool {
	ws := newTrainScratch(Config{Dim: 8, NegativeSamples: len(zs)})
	copy(ws.zbuf, zs)
	return sgdUpdate(s.emb.Ego[i], s.emb.Ctx, j, lr, ws) && sgdUpdate(s.emb.Ctx[i], s.emb.Ego, j, lr, ws)
}

// applyKernel applies the same sample with elineStep8.
func (s *sampleTables) applyKernel(i, j rfgraph.NodeID, zs []rfgraph.NodeID, lr float64) bool {
	ws := newTrainScratch(Config{Dim: 8, NegativeSamples: len(zs)})
	return elineStep8(s.ego, s.ctx, i, j, zs, -lr, ws.gs)
}

// TestELINEKernelMatchesGo pins elineStep8, the AVX2 E-LINE kernel, to
// the Go kernels bit for bit. Each case runs the Go path first — a whole
// fit, checked against the serial reference, or one crafted sample — and
// then the kernel on the same input. Only the kernel leg skips, on a CPU
// without AVX2.
func TestELINEKernelMatchesGo(t *testing.T) {
	t.Run("fits", func(t *testing.T) {
		twoFloor, _, _ := twoFloorGraph(t, 20, 3, 3)
		// Two records of two MACs each: six nodes, so a negative draw is
		// often i (the kernel declines), often j, and often a repeat.
		tiny, _, _ := twoFloorGraph(t, 1, 2, 5)
		for _, gc := range []struct {
			name string
			g    *rfgraph.Graph
		}{{"two-floor", twoFloor}, {"tiny", tiny}} {
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

	// Declines: the kernel returns false and writes nothing.
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
// hyperparameters through the AVX2 kernel and through the Go kernels.
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
