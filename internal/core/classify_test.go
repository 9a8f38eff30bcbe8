package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
)

// trainedSystem builds a small trained campus system and its test split.
func trainedSystem(t *testing.T) (*System, []dataset.Record) {
	t.Helper()
	train, test := campusSplit(t, 40, 4, 7)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return s, test
}

func TestClassifyResultShape(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	for i := range test[:10] {
		res, err := s.Classify(ctx, &test[i], WithTopK(-1))
		if err != nil {
			t.Fatalf("Classify(%s): %v", test[i].ID, err)
		}
		if res.Confidence <= 0 || res.Confidence > 1 {
			t.Errorf("confidence %v outside (0,1]", res.Confidence)
		}
		if len(res.Candidates) == 0 {
			t.Fatal("no candidates")
		}
		if res.Candidates[0].Floor != res.Floor ||
			res.Candidates[0].ClusterIndex != res.ClusterIndex ||
			res.Candidates[0].Confidence != res.Confidence ||
			res.Candidates[0].Distance != res.Distance {
			t.Errorf("top candidate %+v disagrees with result %+v", res.Candidates[0], res)
		}
		var sum float64
		seen := map[int]bool{}
		for j, c := range res.Candidates {
			if c.Confidence <= 0 || c.Confidence > 1 {
				t.Errorf("candidate %d confidence %v outside (0,1]", j, c.Confidence)
			}
			if j > 0 && c.Confidence > res.Candidates[j-1].Confidence {
				t.Errorf("candidates not sorted by descending confidence at %d", j)
			}
			if seen[c.Floor] {
				t.Errorf("floor %d listed twice", c.Floor)
			}
			seen[c.Floor] = true
			sum += c.Confidence
		}
		// With TopK(-1) every distinct floor is listed, so the softmax
		// mass must sum to 1.
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("confidences sum to %v, want 1", sum)
		}
		if res.Embedding == nil {
			t.Error("embedding missing without WithoutEmbedding")
		}
	}
}

func TestClassifyTopK(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	res, err := s.Classify(ctx, &test[0]) // default: winner only
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if len(res.Candidates) != 1 {
		t.Errorf("default candidates = %d, want 1", len(res.Candidates))
	}
	res2, err := s.Classify(ctx, &test[0], WithTopK(2))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if len(res2.Candidates) != 2 {
		t.Errorf("top-2 candidates = %d, want 2", len(res2.Candidates))
	}
	// Campus has 3 floors; asking for more than exist caps at the count.
	res3, err := s.Classify(ctx, &test[0], WithTopK(99))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if len(res3.Candidates) != 3 {
		t.Errorf("top-99 candidates = %d, want 3 (distinct floors)", len(res3.Candidates))
	}
	// A zero-value Request through Do gets the same default as Classify.
	res4, err := s.Do(ctx, Request{Record: &test[0]})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(res4.Candidates) != 1 {
		t.Errorf("zero-value Request candidates = %d, want the default 1", len(res4.Candidates))
	}
}

func TestClassifyOptions(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	res, err := s.Classify(ctx, &test[0], WithoutEmbedding())
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if res.Embedding != nil {
		t.Error("WithoutEmbedding still returned an embedding")
	}
	// WithSeed makes classification deterministic and repeatable.
	a, err := s.Classify(ctx, &test[1], WithSeed(42), WithTopK(-1))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	b, err := s.Classify(ctx, &test[1], WithSeed(42), WithTopK(-1))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if a.Floor != b.Floor || a.Confidence != b.Confidence || a.Distance != b.Distance {
		t.Errorf("WithSeed not deterministic: %+v vs %+v", a, b)
	}
}

func TestClassifyContextCancelled(t *testing.T) {
	s, test := trainedSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Classify(ctx, &test[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Classify with cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := s.Classify(ctx, &test[0], WithAbsorb()); !errors.Is(err, context.Canceled) {
		t.Errorf("absorbing Classify with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestClassifyBatchCancelled(t *testing.T) {
	s, test := trainedSystem(t)
	// Duplicate the pool so the batch is big enough that a full run would
	// be clearly slower than the cancelled one.
	var recs []dataset.Record
	for i := 0; i < 50; i++ {
		recs = append(recs, test...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	results, errs := s.ClassifyBatch(ctx, recs)
	elapsed := time.Since(start)
	if len(results) != len(recs) || len(errs) != len(recs) {
		t.Fatalf("batch sizes %d/%d, want %d", len(results), len(errs), len(recs))
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d error = %v, want context.Canceled", i, err)
		}
	}
	// "Promptly" — an already-cancelled batch must not classify anything.
	if elapsed > 2*time.Second {
		t.Errorf("cancelled batch took %v, want immediate return", elapsed)
	}
}

func TestClassifyBatchTimeout(t *testing.T) {
	s, test := trainedSystem(t)
	var recs []dataset.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, test...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, errs := s.ClassifyBatch(ctx, recs)
	timedOut := 0
	for _, err := range errs {
		if errors.Is(err, context.DeadlineExceeded) {
			timedOut++
		}
	}
	// The whole pool takes far longer than 5ms, so most items must carry
	// the deadline error instead of having been classified.
	if timedOut == 0 {
		t.Error("no item reported context.DeadlineExceeded despite a 5ms budget")
	}
}

func TestClassifyAbsorbGrowsGraph(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	before := s.Stats()
	scan := test[0]
	scan.Readings = append(append([]dataset.Reading(nil), scan.Readings...),
		dataset.Reading{MAC: "brand-new-ap", RSS: -58})
	res, err := s.Classify(ctx, &scan, WithAbsorb(), WithTopK(2))
	if err != nil {
		t.Fatalf("absorbing Classify: %v", err)
	}
	if res.Confidence <= 0 || res.Confidence > 1 {
		t.Errorf("confidence %v outside (0,1]", res.Confidence)
	}
	if len(res.Candidates) != 2 {
		t.Errorf("candidates = %d, want 2", len(res.Candidates))
	}
	after := s.Stats()
	if after.Records != before.Records+1 {
		t.Errorf("records %d -> %d, want +1", before.Records, after.Records)
	}
	if after.MACs != before.MACs+1 {
		t.Errorf("MACs %d -> %d, want +1 (new AP)", before.MACs, after.MACs)
	}
}

// TestAbsorbEmbedsLikeClassify: an absorb embeds its scan against the
// live sampler of the graph before the insert, so with a fixed seed it
// returns exactly what a read-only classify of the same scan returned the
// moment before.
func TestAbsorbEmbedsLikeClassify(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	checked := 0
	for i := range test {
		rec := test[i]
		known := true
		for _, rd := range rec.Readings {
			known = known && s.HasMAC(rd.MAC)
		}
		if !known {
			continue
		}
		want, err := s.Classify(ctx, &rec, WithSeed(7))
		if err != nil {
			t.Fatalf("Classify(%s): %v", rec.ID, err)
		}
		got, err := s.Classify(ctx, &rec, WithAbsorb(), WithSeed(7))
		if err != nil {
			t.Fatalf("absorbing Classify(%s): %v", rec.ID, err)
		}
		if got.Floor != want.Floor || got.Distance != want.Distance || got.Confidence != want.Confidence {
			t.Fatalf("scan %s: absorb gave floor %d, distance %v, confidence %v; classify gave %d, %v, %v",
				rec.ID, got.Floor, got.Distance, got.Confidence, want.Floor, want.Distance, want.Confidence)
		}
		if checked++; checked == 20 {
			break
		}
	}
	if checked < 20 {
		t.Fatalf("only %d test scans hear only known MACs, want 20", checked)
	}
}

func TestClassifierInterface(t *testing.T) {
	s, test := trainedSystem(t)
	var c Classifier = s
	res, err := c.Classify(context.Background(), &test[0])
	if err != nil {
		t.Fatalf("Classify via interface: %v", err)
	}
	if res.Confidence <= 0 {
		t.Errorf("confidence %v, want > 0", res.Confidence)
	}
}

// TestResultFromEgoNoLabels: a model whose clusters are all unlabeled
// (possible only via a corrupted snapshot) must degrade like the legacy
// model.Predict — Unlabeled floor, cluster -1, infinite distance — not
// panic.
func TestResultFromEgoNoLabels(t *testing.T) {
	s := &System{model: &cluster.Model{Clusters: []cluster.Cluster{
		{Label: cluster.Unlabeled, Centroid: []float64{0, 0}},
	}}}
	res := s.resultFromEgo([]float64{1, 1}, defaultOptions(), nil)
	if res.Floor != cluster.Unlabeled || res.ClusterIndex != -1 || !math.IsInf(res.Distance, 1) {
		t.Errorf("degraded result = %+v, want Unlabeled/-1/+Inf", res)
	}
	if len(res.Candidates) != 0 || res.Confidence != 0 {
		t.Errorf("degraded result carries candidates/confidence: %+v", res)
	}
}

func TestRequestAccessors(t *testing.T) {
	rec := &dataset.Record{ID: "x"}
	req := NewRequest(rec, WithTopK(5), WithAbsorb(), WithSeed(9), WithoutEmbedding())
	if req.Record != rec {
		t.Error("record not bound")
	}
	if req.TopK() != 5 || !req.Absorb() || req.WantEmbedding() {
		t.Errorf("accessors disagree with options: %+v", req)
	}
	if seed, ok := req.Seed(); !ok || seed != 9 {
		t.Errorf("Seed() = %v,%v, want 9,true", seed, ok)
	}
	def := NewRequest(rec)
	if def.TopK() != 1 || def.Absorb() || !def.WantEmbedding() {
		t.Errorf("defaults wrong: %+v", def)
	}
	if _, ok := def.Seed(); ok {
		t.Error("default request has a fixed seed")
	}
}
