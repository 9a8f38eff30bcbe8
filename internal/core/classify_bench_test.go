package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/simulate"
)

// benchSystem builds a trained campus system and its query pool without a
// *testing.T, so both Benchmarks and examples can share it.
func benchSystem(b *testing.B, recordsPerFloor int) (*System, []dataset.Record) {
	b.Helper()
	corpus, err := simulate.Generate(simulate.Campus3F(recordsPerFloor, 7))
	if err != nil {
		b.Fatalf("simulate: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	train, test, err := dataset.Split(&corpus.Buildings[0], 0.7, rng)
	if err != nil {
		b.Fatalf("split: %v", err)
	}
	dataset.SelectLabels(train, 4, rng)
	cfg := Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	s := New(cfg)
	if err := s.AddTraining(train); err != nil {
		b.Fatalf("AddTraining: %v", err)
	}
	if err := s.FitCtx(context.Background()); err != nil {
		b.Fatalf("Fit: %v", err)
	}
	return s, test
}

// BenchmarkClassify measures the read-only hot path exactly as the /v2
// server drives it: no embedding in the result, winner-only candidates.
func BenchmarkClassify(b *testing.B) {
	s, test := benchSystem(b, 40)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Classify(ctx, &test[i%len(test)], WithoutEmbedding()); err != nil {
			b.Fatalf("Classify: %v", err)
		}
	}
}

// BenchmarkClassifyTopK measures the ranked-candidates variant (the sort
// beyond the winner is only paid on this path).
func BenchmarkClassifyTopK(b *testing.B) {
	s, test := benchSystem(b, 40)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Classify(ctx, &test[i%len(test)], WithoutEmbedding(), WithTopK(-1)); err != nil {
			b.Fatalf("Classify: %v", err)
		}
	}
}

// BenchmarkClassifyParallel measures read-lock scaling across cores.
func BenchmarkClassifyParallel(b *testing.B) {
	s, test := benchSystem(b, 40)
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.Classify(ctx, &test[i%len(test)], WithoutEmbedding()); err != nil {
				b.Fatalf("Classify: %v", err)
			}
			i++
		}
	})
}
