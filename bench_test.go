// Benchmarks regenerating every table and figure of the GRAFICS paper
// (run `go test -bench=. -benchmem`), plus ablation benches for the design
// choices called out in DESIGN.md §5 and micro-benchmarks of the hot
// paths. Figure benches run at a reduced scale so the full suite stays in
// the minutes range; cmd/experiments reproduces them at any scale.
// Quality metrics (micro-F etc.) are attached via b.ReportMetric, so each
// bench reports both cost and the reproduced result.
package grafics

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/experiment"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/rfgraph"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/simulate"
	"repro/internal/wal"
)

// benchScale is the corpus scale used by the figure benches.
func benchScale() experiment.Scale {
	return experiment.Scale{MicrosoftBuildings: 2, RecordsPerFloor: 30, SamplesPerEdge: 120, Repetitions: 1}
}

func BenchmarkFig01DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig01(150, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FracPairsBelowHalf, "fracOverlap<0.5")
		b.ReportMetric(float64(r.DistinctMACs), "distinctMACs")
	}
}

func BenchmarkFig06EmbeddingQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig06(30, 60, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Method {
			case "E-LINE":
				b.ReportMetric(r.Purity, "purity/e-line")
			case "MDS":
				b.ReportMetric(r.Purity, "purity/mds")
			case "Autoencoder":
				b.ReportMetric(r.Purity, "purity/autoenc")
			}
		}
	}
}

func BenchmarkFig08ClusterProgress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig08(30, 60, 1)
		if err != nil {
			b.Fatal(err)
		}
		final := rows[len(rows)-1]
		b.ReportMetric(final.Purity, "finalPurity")
		b.ReportMetric(float64(final.Clusters), "finalClusters")
	}
}

func BenchmarkFig09DatasetSummary(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		summaries, err := experiment.Fig09(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(summaries["Microsoft"])+len(summaries["HongKong"])), "buildings")
	}
}

func BenchmarkFig11LabelSweep(b *testing.B) {
	s := experiment.Scale{MicrosoftBuildings: 1, RecordsPerFloor: 25, SamplesPerEdge: 120, Repetitions: 1}
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig11(s, []int{4, 40}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "Microsoft" && r.LabelsPerFloor == 4 && r.Method == "GRAFICS" {
				b.ReportMetric(r.MicroF, "microF/grafics@4")
			}
			if r.Dataset == "Microsoft" && r.LabelsPerFloor == 4 && r.Method == "Scalable-DNN" {
				b.ReportMetric(r.MicroF, "microF/sdnn@4")
			}
		}
	}
}

func BenchmarkFig12TrainRatio(b *testing.B) {
	s := experiment.Scale{MicrosoftBuildings: 1, RecordsPerFloor: 25, SamplesPerEdge: 120, Repetitions: 1}
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig12(s, []float64{0.3, 0.7}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "Microsoft" {
				b.ReportMetric(r.MicroF, fmt.Sprintf("microF@%d%%", r.TrainPct))
			}
		}
	}
}

func BenchmarkFig13ELINEvsLINE(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig13(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "Microsoft" && r.Labels == 4 {
				if r.Variant == "E-LINE" {
					b.ReportMetric(r.MicroF, "microF/e-line@4")
				} else {
					b.ReportMetric(r.MicroF, "microF/line@4")
				}
			}
		}
	}
}

func BenchmarkFig14GraphVsMatrix(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig14(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "Microsoft" {
				if r.Representation == "Graph" {
					b.ReportMetric(r.MicroF, "microF/graph")
				} else {
					b.ReportMetric(r.MicroF, "microF/matrix")
				}
			}
		}
	}
}

func BenchmarkFig15DimSweep(b *testing.B) {
	s := experiment.Scale{MicrosoftBuildings: 1, RecordsPerFloor: 25, SamplesPerEdge: 120, Repetitions: 1}
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig15(s, []int{4, 8, 64}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "Microsoft" {
				b.ReportMetric(r.MicroF, fmt.Sprintf("microF/d%d", r.Dim))
			}
		}
	}
}

func BenchmarkFig16WeightFn(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig16(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "Microsoft" {
				if r.WeightFn == "f=RSS+120" {
					b.ReportMetric(r.MicroF, "microF/offset")
				} else {
					b.ReportMetric(r.MicroF, "microF/power")
				}
			}
		}
	}
}

func BenchmarkFig17MACFraction(b *testing.B) {
	s := experiment.Scale{MicrosoftBuildings: 1, RecordsPerFloor: 25, SamplesPerEdge: 120, Repetitions: 1}
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig17(s, []float64{0.1, 0.4, 1.0}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "Microsoft" {
				b.ReportMetric(r.MicroF, fmt.Sprintf("microF@%d%%MACs", r.MACPercent))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §5).

// benchCampusGraph builds a campus graph once for the ablation benches.
func benchCampusGraph(b *testing.B, recordsPerFloor int) *rfgraph.Graph {
	b.Helper()
	corpus, err := simulate.Generate(simulate.Campus3F(recordsPerFloor, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := rfgraph.New(nil)
	if _, err := g.AddRecords(corpus.Buildings[0].Records); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAblationSymmetricTerm times E-LINE (two-sided objective)
// against plain second-order LINE on the same graph, exposing the cost of
// the symmetric term the paper adds.
func BenchmarkAblationSymmetricTerm(b *testing.B) {
	for _, mode := range []embed.Mode{embed.ModeELINE, embed.ModeLINESecond} {
		b.Run(mode.String(), func(b *testing.B) {
			g := benchCampusGraph(b, 40)
			cfg := embed.DefaultConfig()
			cfg.Mode = mode
			cfg.SamplesPerEdge = 60
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := embed.TrainCtx(context.Background(), g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNegativeSamples sweeps K, the negative-sample count.
func BenchmarkAblationNegativeSamples(b *testing.B) {
	for _, k := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			g := benchCampusGraph(b, 40)
			cfg := embed.DefaultConfig()
			cfg.NegativeSamples = k
			cfg.SamplesPerEdge = 60
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := embed.TrainCtx(context.Background(), g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOffsetValue verifies the paper's observation that the
// offset value barely matters by scoring GRAFICS at several α.
func BenchmarkAblationOffsetValue(b *testing.B) {
	corpus, err := simulate.Generate(simulate.Campus3F(40, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, alpha := range []float64{100, 120, 150} {
		b.Run(fmt.Sprintf("alpha=%.0f", alpha), func(b *testing.B) {
			m := experiment.GraficsWithWeight(
				core.WeightSpec{Kind: core.WeightOffset, Alpha: alpha},
				fmt.Sprintf("offset-%.0f", alpha), 120)
			for i := 0; i < b.N; i++ {
				cell, err := experiment.EvalCorpus(corpus, m, experiment.EvalOptions{LabelsPerFloor: 4, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cell.MicroF, "microF")
			}
		})
	}
}

// BenchmarkAblationParallelFits measures the parallelism training has:
// portfolio.AddBuildings fitting four Campus3F buildings one at a time
// (workers=1) and one per core (workers=0), each fit on one goroutine.
func BenchmarkAblationParallelFits(b *testing.B) {
	params := simulate.Campus3F(40, 1)
	params.NumBuildings = 4
	corpus, err := simulate.Generate(params)
	if err != nil {
		b.Fatal(err)
	}
	buildings := make([]portfolio.BuildingCorpus, len(corpus.Buildings))
	for i := range corpus.Buildings {
		train := append([]dataset.Record(nil), corpus.Buildings[i].Records...)
		dataset.SelectLabels(train, 4, rand.New(rand.NewSource(int64(i))))
		buildings[i] = portfolio.BuildingCorpus{Name: corpus.Buildings[i].Name, Train: train}
	}
	cfg := core.Config{Embed: embed.DefaultConfig()}
	cfg.Embed.SamplesPerEdge = 60
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := portfolio.New(cfg).AddBuildings(context.Background(), buildings, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationClusterConstraint compares the paper's constrained
// clustering (≤1 labeled sample per cluster) against plain agglomeration
// to the same cluster count, on overlapping blobs where the constraint
// earns its keep. Each run reports the virtual-label accuracy.
func BenchmarkAblationClusterConstraint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const blobs, per, labelsPer = 3, 120, 4
	var items []cluster.Item
	truth := make([]int, 0, blobs*per)
	for f := 0; f < blobs; f++ {
		for i := 0; i < per; i++ {
			label := cluster.Unlabeled
			if i < labelsPer {
				label = f
			}
			items = append(items, cluster.Item{
				Index: f*per + i,
				Vec:   []float64{float64(f)*4 + rng.NormFloat64()*1.4, rng.NormFloat64() * 1.4},
				Label: label,
			})
			truth = append(truth, f)
		}
	}
	accuracy := func(m *cluster.Model) float64 {
		labels := m.MemberLabels()
		ok := 0
		for i, l := range labels {
			if l == truth[i] {
				ok++
			}
		}
		return float64(ok) / float64(len(labels))
	}
	b.Run("constrained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := cluster.TrainCtx(context.Background(), items)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(accuracy(m), "virtAcc")
		}
	})
	b.Run("unconstrained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := cluster.TrainUnconstrained(items, blobs*labelsPer)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(accuracy(m), "virtAcc")
		}
	})
}

// BenchmarkAblationAPChurn scores GRAFICS as a growing share of APs are
// installed/removed mid-campaign — the temporal heterogeneity of §III-A.
// The metric shows the graceful degradation (and is the knob DESIGN.md
// documents as available but off by default in the corpus profiles).
func BenchmarkAblationAPChurn(b *testing.B) {
	for _, churn := range []float64{0, 0.3, 0.6} {
		b.Run(fmt.Sprintf("churn=%.1f", churn), func(b *testing.B) {
			params := simulate.Campus3F(60, 1)
			params.APChurnFraction = churn
			corpus, err := simulate.Generate(params)
			if err != nil {
				b.Fatal(err)
			}
			m := experiment.Grafics{SamplesPerEdge: 120}
			for i := 0; i < b.N; i++ {
				cell, err := experiment.EvalCorpus(corpus, m, experiment.EvalOptions{LabelsPerFloor: 4, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cell.MicroF, "microF")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths.

func BenchmarkGraphAddRecord(b *testing.B) {
	corpus, err := simulate.Generate(simulate.Campus3F(100, 1))
	if err != nil {
		b.Fatal(err)
	}
	records := corpus.Buildings[0].Records
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := rfgraph.New(nil)
		for j := range records {
			if _, err := g.AddRecord(&records[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkELINETrainPerSample(b *testing.B) {
	g := benchCampusGraph(b, 60)
	cfg := embed.DefaultConfig()
	cfg.SamplesPerEdge = 10
	edges := len(g.DirectedEdges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embed.TrainCtx(context.Background(), g, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(edges*cfg.SamplesPerEdge), "sgdSamples/op")
}

// BenchmarkClassifyBatchNDJSON measures the v2 streaming batch path end
// to end: an NDJSON body of held-out scans posted to /v2/classify/batch,
// classified in parallel chunks, and streamed back line by line. Reported
// per op is one whole batch; scans/op gives the batch size.
func BenchmarkClassifyBatchNDJSON(b *testing.B) {
	corpus, err := simulate.Generate(simulate.Campus3F(40, 1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	train, test, err := dataset.Split(&corpus.Buildings[0], 0.7, rng)
	if err != nil {
		b.Fatal(err)
	}
	dataset.SelectLabels(train, 4, rng)
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 60
	p := portfolio.New(cfg)
	if err := p.AddBuildingCtx(context.Background(), corpus.Buildings[0].Name, train); err != nil {
		b.Fatal(err)
	}
	h := server.NewHandler(p, p, server.Options{})
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range test {
		if err := enc.Encode(test[i]); err != nil {
			b.Fatal(err)
		}
	}
	raw := body.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v2/classify/batch", bytes.NewReader(raw))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.ReportMetric(float64(len(test)), "scans/op")
}

// BenchmarkWALAppend measures the absorb journal's append cost — the
// durability tax added to every absorbed scan — with and without
// per-append fsync.
func BenchmarkWALAppend(b *testing.B) {
	readings := make([]dataset.Reading, 20)
	for i := range readings {
		readings[i] = dataset.Reading{MAC: fmt.Sprintf("aa:bb:cc:dd:%02x:%02x", i/256, i%256), RSS: -40 - float64(i)}
	}
	rec := wal.Record{Building: "bench", Scan: dataset.Record{ID: "scan-1", Readings: readings}}
	for _, tc := range []struct {
		name string
		sync int
	}{{"fsyncEvery", 1}, {"fsyncNever", -1}} {
		b.Run(tc.name, func(b *testing.B) {
			l, err := wal.Open(wal.Options{Dir: b.TempDir(), SyncEvery: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotSwapClassify measures classify throughput while background
// refits continuously retrain and hot-swap the model underneath the
// readers — the lifecycle subsystem's "reads never stall" claim. The
// swaps/op metric confirms swaps actually happened during the
// measurement.
func BenchmarkHotSwapClassify(b *testing.B) {
	corpus, err := simulate.Generate(simulate.Campus3F(40, 1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	train, test, err := dataset.Split(&corpus.Buildings[0], 0.7, rng)
	if err != nil {
		b.Fatal(err)
	}
	dataset.SelectLabels(train, 4, rng)
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 60
	m, err := lifecycle.OpenCtx(context.Background(), cfg, lifecycle.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	const name = "campus"
	if err := m.Portfolio().AddBuildingCtx(context.Background(), name, train); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	var swaps atomic.Int64
	go func() {
		defer close(swapperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			started, err := m.ForceRefit(name)
			if err != nil || len(started) == 0 {
				continue
			}
			for m.Refitting() {
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
			swaps.Add(1)
		}
	}()

	ctx := context.Background()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) % len(test)
			if _, err := m.Classify(ctx, &test[i], core.WithoutEmbedding()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-swapperDone
	b.ReportMetric(float64(swaps.Load())/float64(b.N), "swaps/op")
}

func BenchmarkClusterTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var items []cluster.Item
	for f := 0; f < 5; f++ {
		for i := 0; i < 100; i++ {
			label := cluster.Unlabeled
			if i < 4 {
				label = f
			}
			items = append(items, cluster.Item{
				Index: f*100 + i,
				Vec:   []float64{float64(f)*8 + rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
				Label: label,
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.TrainCtx(context.Background(), items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAliasDraw(b *testing.B) {
	weights := make([]float64, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := range weights {
		weights[i] = rng.Float64() * 100
	}
	a, err := sampling.NewAlias(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Draw(rng)
	}
}
