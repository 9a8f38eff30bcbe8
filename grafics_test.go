package grafics_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	grafics "repro"
)

// trainTestSplit builds a labeled synthetic split via the public API only.
func trainTestSplit(t *testing.T, seed int64) (train, test []grafics.Record) {
	t.Helper()
	corpus, err := grafics.GenerateCorpus(grafics.Campus3FParams(40, seed))
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	train, test, err = grafics.SplitRecords(&corpus.Buildings[0], 0.7, seed)
	if err != nil {
		t.Fatalf("SplitRecords: %v", err)
	}
	grafics.SelectLabels(train, 4, seed)
	return train, test
}

func TestPublicAPIEndToEnd(t *testing.T) {
	train, test := trainTestSplit(t, 1)
	cfg := grafics.Config{}
	cfg.Embed = grafics.DefaultEmbedConfig()
	cfg.Embed.SamplesPerEdge = 40
	sys := grafics.New(cfg)
	if err := sys.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := sys.FitCtx(context.Background()); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	correct := 0
	for i := range test {
		pred, err := sys.Classify(context.Background(), &test[i])
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		if pred.Floor == test[i].Floor {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.8 {
		t.Errorf("public API accuracy %v, want >= 0.8", acc)
	}
}

// TestPublicAPIClassify exercises the context-first v2 entry point via
// the facade: the Classifier interface, options, confidence bounds, and
// cancellation.
func TestPublicAPIClassify(t *testing.T) {
	train, test := trainTestSplit(t, 6)
	cfg := grafics.Config{}
	cfg.Embed = grafics.DefaultEmbedConfig()
	cfg.Embed.SamplesPerEdge = 40
	sys := grafics.New(cfg)
	if err := sys.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := sys.FitCtx(context.Background()); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var c grafics.Classifier = sys
	ctx := context.Background()
	res, err := c.Classify(ctx, &test[0], grafics.WithTopK(-1), grafics.WithoutEmbedding())
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if res.Confidence <= 0 || res.Confidence > 1 {
		t.Errorf("confidence %v outside (0,1]", res.Confidence)
	}
	if len(res.Candidates) < 2 {
		t.Errorf("candidates = %d, want every distinct floor", len(res.Candidates))
	}
	if res.Embedding != nil {
		t.Error("WithoutEmbedding returned an embedding")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Classify(cancelled, &test[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Classify with cancelled ctx = %v, want context.Canceled", err)
	}
	results, errs := c.ClassifyBatch(ctx, test)
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("batch item %d: %v", i, errs[i])
		}
		if results[i].Confidence <= 0 {
			t.Errorf("batch item %d confidence %v, want > 0", i, results[i].Confidence)
		}
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	train, test := trainTestSplit(t, 2)
	cfg := grafics.Config{}
	cfg.Embed = grafics.DefaultEmbedConfig()
	cfg.Embed.SamplesPerEdge = 30
	sys := grafics.New(cfg)
	if err := sys.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := sys.FitCtx(context.Background()); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := grafics.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := loaded.Classify(context.Background(), &test[0]); err != nil {
		t.Errorf("loaded Classify: %v", err)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	sys := grafics.New(grafics.Config{})
	if err := sys.FitCtx(context.Background()); !errors.Is(err, grafics.ErrNoTraining) {
		t.Errorf("Fit error = %v, want ErrNoTraining", err)
	}
	rec := grafics.Record{ID: "r", Readings: []grafics.Reading{{MAC: "m", RSS: -50}}}
	if _, err := sys.Classify(context.Background(), &rec); !errors.Is(err, grafics.ErrNotTrained) {
		t.Errorf("Classify error = %v, want ErrNotTrained", err)
	}
}

func TestWeightModes(t *testing.T) {
	train, test := trainTestSplit(t, 3)
	cfg := grafics.Config{Weight: grafics.WeightSpec{Kind: grafics.WeightPower}}
	cfg.Embed = grafics.DefaultEmbedConfig()
	cfg.Embed.SamplesPerEdge = 20
	sys := grafics.New(cfg)
	if err := sys.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := sys.FitCtx(context.Background()); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if _, err := sys.Classify(context.Background(), &test[0]); err != nil {
		t.Errorf("power-weight Classify: %v", err)
	}
}

func TestLINEModesViaPublicAPI(t *testing.T) {
	train, _ := trainTestSplit(t, 4)
	for _, mode := range []struct {
		name string
		m    grafics.EmbedConfig
	}{
		{"eline", func() grafics.EmbedConfig { c := grafics.DefaultEmbedConfig(); c.Mode = grafics.ModeELINE; return c }()},
		{"line2", func() grafics.EmbedConfig {
			c := grafics.DefaultEmbedConfig()
			c.Mode = grafics.ModeLINESecond
			return c
		}()},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := grafics.Config{Embed: mode.m}
			cfg.Embed.SamplesPerEdge = 20
			sys := grafics.New(cfg)
			if err := sys.AddTraining(train); err != nil {
				t.Fatalf("AddTraining: %v", err)
			}
			if err := sys.FitCtx(context.Background()); err != nil {
				t.Fatalf("Fit: %v", err)
			}
		})
	}
}
