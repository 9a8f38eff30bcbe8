// Package experiment is the reproduction harness: one runner per table and
// figure of the GRAFICS paper's evaluation section (§VI), a shared
// evaluation engine that scores any method on any synthetic corpus, and
// plain-text table formatting for cmd/experiments and the benchmark suite.
package experiment

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
)

// Grafics adapts the core GRAFICS system to the baseline.FitPredictor
// interface used by the evaluation engine. The zero value runs the paper's
// configuration; Label and Cfg customize it.
type Grafics struct {
	// Label overrides the reported name (default "GRAFICS").
	Label string
	// Cfg overrides the system configuration; zero value = paper setup.
	Cfg core.Config
	// SamplesPerEdge, when positive, overrides the E-LINE sample budget
	// (used to trade accuracy for speed in sweeps).
	SamplesPerEdge int
}

// Name implements baseline.FitPredictor.
func (g Grafics) Name() string {
	if g.Label != "" {
		return g.Label
	}
	return "GRAFICS"
}

// FitPredict implements baseline.FitPredictor.
func (g Grafics) FitPredict(train, test []dataset.Record, seed int64) ([]int, error) {
	cfg := g.Cfg
	if cfg.Embed == (embed.Config{}) {
		cfg.Embed = embed.DefaultConfig()
	}
	cfg.Embed.Seed = seed
	if g.SamplesPerEdge > 0 {
		cfg.Embed.SamplesPerEdge = g.SamplesPerEdge
	}
	sys := core.New(cfg)
	if err := sys.AddTraining(train); err != nil {
		return nil, fmt.Errorf("experiment: grafics add training: %w", err)
	}
	if err := sys.Fit(); err != nil {
		return nil, fmt.Errorf("experiment: grafics fit: %w", err)
	}
	out := make([]int, len(test))
	for i := range test {
		res, err := sys.Classify(context.Background(), &test[i])
		if err != nil {
			// Out-of-building or degenerate scans still need an answer
			// for scoring; emit an impossible floor so they count as
			// errors rather than aborting the sweep.
			out[i] = -1
			continue
		}
		out[i] = res.Floor
	}
	return out, nil
}

// GraficsWithLINE returns the Fig. 13 ablation: GRAFICS with plain
// second-order LINE embeddings instead of E-LINE.
func GraficsWithLINE(samplesPerEdge int) Grafics {
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.Mode = embed.ModeLINESecond
	return Grafics{Label: "GRAFICS-LINE", Cfg: cfg, SamplesPerEdge: samplesPerEdge}
}

// GraficsWithWeight returns GRAFICS with an alternative weight function
// (Fig. 16).
func GraficsWithWeight(spec core.WeightSpec, label string, samplesPerEdge int) Grafics {
	return Grafics{Label: label, Cfg: core.Config{Weight: spec}, SamplesPerEdge: samplesPerEdge}
}

// GraficsWithDim returns GRAFICS with a custom embedding dimension
// (Fig. 15).
func GraficsWithDim(dim, samplesPerEdge int) Grafics {
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.Dim = dim
	return Grafics{Label: fmt.Sprintf("GRAFICS-d%d", dim), Cfg: cfg, SamplesPerEdge: samplesPerEdge}
}

// DefaultMethods returns the Fig. 11 comparison set: GRAFICS plus the four
// state-of-the-art baselines, tuned for harness-scale corpora.
func DefaultMethods(samplesPerEdge int) []baseline.FitPredictor {
	return []baseline.FitPredictor{
		Grafics{SamplesPerEdge: samplesPerEdge},
		baseline.ScalableDNN{Dim: 8, PretrainEpochs: 8, ClassifierEpochs: 25},
		baseline.SAE{PretrainEpochs: 8, FineTuneEpochs: 25},
		baseline.MDSProx{Dim: 8},
		baseline.AutoencoderProx{Dim: 8, Epochs: 10},
	}
}
