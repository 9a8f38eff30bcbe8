package experiment

import (
	"testing"

	"repro/internal/simulate"
)

// TestOnlineInferenceAccuracy pins GRAFICS micro-F on the two evaluation
// corpora at a fixed seed, with parity fits so the numbers are
// reproducible. Every test scan goes through online inference (§V-A), so
// this guards the detached SGD step — its start vector and round budget —
// where the benchmark cannot see it: on the Campus3F corpora behind the
// benchmark a random start with 20 rounds holds accuracy, while here it
// drops HongKong-like micro-F to about 0.60. Each floor is 0.02 below
// what the 100-round random start scored on amd64 (Microsoft-like 0.9396,
// HongKong-like 0.7104); the warm start with 20 rounds scores 0.9500 and
// 0.7917.
func TestOnlineInferenceAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a parity model per building")
	}
	floors := map[string]float64{"Microsoft": 0.9196, "HongKong": 0.6904}
	s := Scale{MicrosoftBuildings: 2, RecordsPerFloor: 25}
	for _, spec := range Datasets(s, 1) {
		corpus, err := simulate.Generate(spec.Params)
		if err != nil {
			t.Fatalf("%s: generate: %v", spec.Name, err)
		}
		corpus.Name = spec.Name
		cell, err := EvalCorpus(corpus, Grafics{SamplesPerEdge: 120}, EvalOptions{LabelsPerFloor: 4, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		t.Logf("%s: micro-F %.4f, macro-F %.4f", spec.Name, cell.MicroF, cell.MacroF)
		if cell.MicroF < floors[spec.Name] {
			t.Errorf("%s: micro-F %.4f below %.4f", spec.Name, cell.MicroF, floors[spec.Name])
		}
	}
}
