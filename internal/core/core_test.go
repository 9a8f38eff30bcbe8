package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/metrics"
	"repro/internal/simulate"
)

// campusSplit generates the 3-floor campus corpus and returns a labeled
// training split plus a test split.
func campusSplit(t *testing.T, recordsPerFloor, labelsPerFloor int, seed int64) (train, test []dataset.Record) {
	t.Helper()
	corpus, err := simulate.Generate(simulate.Campus3F(recordsPerFloor, seed))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	train, test, err = dataset.Split(&corpus.Buildings[0], 0.7, rng)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	dataset.SelectLabels(train, labelsPerFloor, rng)
	return train, test
}

func fastConfig() Config {
	cfg := Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	return cfg
}

func TestLifecycleErrors(t *testing.T) {
	s := New(Config{})
	if err := s.Fit(); !errors.Is(err, ErrNoTraining) {
		t.Errorf("Fit on empty = %v, want ErrNoTraining", err)
	}
	rec := dataset.Record{ID: "x", Readings: []dataset.Reading{{MAC: "m", RSS: -50}}}
	if _, err := s.Predict(&rec); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Predict untrained = %v, want ErrNotTrained", err)
	}
	if _, err := s.TrainingAssignments(); !errors.Is(err, ErrNotTrained) {
		t.Errorf("TrainingAssignments untrained = %v, want ErrNotTrained", err)
	}
	if _, err := s.ClusterModel(); !errors.Is(err, ErrNotTrained) {
		t.Errorf("ClusterModel untrained = %v, want ErrNotTrained", err)
	}
}

func TestEndToEndAccuracy(t *testing.T) {
	train, test := campusSplit(t, 60, 4, 1)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if err := s.Fit(); !errors.Is(err, ErrAlreadyFit) {
		t.Errorf("second Fit = %v, want ErrAlreadyFit", err)
	}
	if err := s.AddTraining(train[:1]); !errors.Is(err, ErrAlreadyFit) {
		t.Errorf("AddTraining after Fit = %v, want ErrAlreadyFit", err)
	}
	var trueL, predL []int
	for i := range test {
		pred, err := s.Predict(&test[i])
		if err != nil {
			t.Fatalf("Predict(%s): %v", test[i].ID, err)
		}
		trueL = append(trueL, test[i].Floor)
		predL = append(predL, pred.Floor)
	}
	rep, err := metrics.Evaluate(trueL, predL)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if rep.MicroF < 0.85 {
		t.Errorf("micro-F = %v, want >= 0.85 on easy 3-floor campus", rep.MicroF)
	}
}

func TestPredictLeavesGraphUnchanged(t *testing.T) {
	train, test := campusSplit(t, 30, 4, 2)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	before := s.Stats()
	for i := range test[:10] {
		if _, err := s.Predict(&test[i]); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	if after := s.Stats(); after != before {
		t.Errorf("Predict mutated graph: %+v -> %+v", before, after)
	}
}

func TestAbsorbGrowsGraph(t *testing.T) {
	train, test := campusSplit(t, 30, 4, 3)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	before := s.Stats()
	if _, err := s.Absorb(&test[0]); err != nil {
		t.Fatalf("Absorb: %v", err)
	}
	after := s.Stats()
	if after.Records != before.Records+1 {
		t.Errorf("Absorb did not grow records: %+v -> %+v", before, after)
	}
}

func TestOutOfBuilding(t *testing.T) {
	train, _ := campusSplit(t, 30, 4, 4)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	alien := dataset.Record{ID: "alien", Readings: []dataset.Reading{
		{MAC: "never-seen-1", RSS: -50},
		{MAC: "never-seen-2", RSS: -60},
	}}
	if _, err := s.Predict(&alien); !errors.Is(err, ErrOutOfBuilding) {
		t.Errorf("alien Predict = %v, want ErrOutOfBuilding", err)
	}
	// Degenerate scans report the same identity from both entry points.
	empty := dataset.Record{ID: "empty"}
	if _, err := s.Predict(&empty); !errors.Is(err, ErrOutOfBuilding) {
		t.Errorf("empty Predict = %v, want ErrOutOfBuilding", err)
	}
	if _, err := s.Absorb(&empty); !errors.Is(err, ErrOutOfBuilding) {
		t.Errorf("empty Absorb = %v, want ErrOutOfBuilding", err)
	}
	if _, err := s.Absorb(&alien); !errors.Is(err, ErrOutOfBuilding) {
		t.Errorf("alien Absorb = %v, want ErrOutOfBuilding", err)
	}
}

func TestTrainingAssignmentsQuality(t *testing.T) {
	train, _ := campusSplit(t, 50, 4, 5)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	labels, err := s.TrainingAssignments()
	if err != nil {
		t.Fatalf("TrainingAssignments: %v", err)
	}
	if len(labels) != len(train) {
		t.Fatalf("assignments = %d, want %d", len(labels), len(train))
	}
	correct := 0
	for i := range train {
		if labels[i] == train[i].Floor {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(train)); frac < 0.85 {
		t.Errorf("virtual label accuracy %v, want >= 0.85", frac)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	train, test := campusSplit(t, 30, 4, 6)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !loaded.Trained() {
		t.Fatal("loaded system not trained")
	}
	if loaded.Stats() != s.Stats() {
		t.Errorf("stats differ after round trip: %+v vs %+v", loaded.Stats(), s.Stats())
	}
	// Predictions agree (same embeddings, same clusters, same seeds).
	for i := range test[:5] {
		a, err := s.Predict(&test[i])
		if err != nil {
			t.Fatalf("Predict original: %v", err)
		}
		b, err := loaded.Predict(&test[i])
		if err != nil {
			t.Fatalf("Predict loaded: %v", err)
		}
		if a.Floor != b.Floor {
			t.Errorf("record %d: original floor %d, loaded floor %d", i, a.Floor, b.Floor)
		}
	}
}

func TestSaveUntrained(t *testing.T) {
	s := New(Config{})
	var buf bytes.Buffer
	if err := s.Save(&buf); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Save untrained = %v, want ErrNotTrained", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	train, _ := campusSplit(t, 20, 4, 7)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	path := t.TempDir() + "/model.gob"
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !loaded.Trained() {
		t.Error("loaded system not trained")
	}
	if _, err := LoadFile(t.TempDir() + "/missing.gob"); err == nil {
		t.Error("expected error loading missing file")
	}
}

// TestLoadLegacyIncrementalConfig: snapshots written while online
// inference had an early stop store IncrementalConfig with a Tolerance
// field and the 100-round budget. gob drops the retired field, so such a
// snapshot still loads, keeps its stored budget, and classifies.
func TestLoadLegacyIncrementalConfig(t *testing.T) {
	type legacyIncremental struct {
		Rounds          int
		LearningRate    float64
		NegativeSamples int
		Tolerance       float64
		Seed            int64
	}
	type legacyConfig struct {
		Weight      WeightSpec
		Embed       embed.Config
		Incremental legacyIncremental
	}
	type legacySnapshot struct {
		Config       legacyConfig
		TrainRecords []dataset.Record
		Absorbed     []dataset.Record
		RetireLog    []RetireEvent
		Nodes        int
		Dim          int
		Ego          [][]float64
		Ctx          [][]float64
		Model        cluster.Model
		PredictSeq   int
	}
	train, test := campusSplit(t, 30, 4, 6)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var snap snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	legacy := legacySnapshot{
		Config: legacyConfig{
			Weight:      snap.Config.Weight,
			Embed:       snap.Config.Embed,
			Incremental: legacyIncremental{Rounds: 100, LearningRate: 0.025, NegativeSamples: 5, Tolerance: 0.01, Seed: 1},
		},
		TrainRecords: snap.TrainRecords,
		Absorbed:     snap.Absorbed,
		RetireLog:    snap.RetireLog,
		Nodes:        snap.Nodes,
		Dim:          snap.Dim,
		Ego:          snap.Ego,
		Ctx:          snap.Ctx,
		Model:        snap.Model,
		PredictSeq:   snap.PredictSeq,
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatalf("encode legacy snapshot: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load legacy snapshot: %v", err)
	}
	want := embed.IncrementalConfig{Rounds: 100, LearningRate: 0.025, NegativeSamples: 5, Seed: 1}
	if got := loaded.Config().Incremental; got != want {
		t.Errorf("loaded incremental config %+v, want %+v", got, want)
	}
	correct := 0
	for i := range test[:10] {
		res, err := loaded.Classify(context.Background(), &test[i])
		if err != nil {
			t.Fatalf("Classify(%s): %v", test[i].ID, err)
		}
		if res.Floor == test[i].Floor {
			correct++
		}
	}
	if correct < 7 {
		t.Errorf("legacy snapshot classified %d of 10 scans correctly", correct)
	}
}

func TestWeightSpecFunc(t *testing.T) {
	offset := WeightSpec{Kind: WeightOffset, Alpha: 100}
	if got := offset.Func()(-60); got != 40 {
		t.Errorf("offset weight = %v, want 40", got)
	}
	zero := WeightSpec{}
	if got := zero.Func()(-60); got != 60 {
		t.Errorf("default weight = %v, want 60 (alpha 120)", got)
	}
	power := WeightSpec{Kind: WeightPower}
	if got := power.Func()(-10); got != 0.1 {
		t.Errorf("power weight = %v, want 0.1", got)
	}
}

func TestRemoveMAC(t *testing.T) {
	train, _ := campusSplit(t, 20, 4, 8)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	mac := train[0].Readings[0].MAC
	before := s.Stats()
	if err := s.RemoveMAC(mac); err != nil {
		t.Fatalf("RemoveMAC: %v", err)
	}
	if after := s.Stats(); after.MACs != before.MACs-1 {
		t.Errorf("MAC count %d -> %d, want -1", before.MACs, after.MACs)
	}
	if err := s.RemoveMAC("bogus"); err == nil {
		t.Error("expected error removing unknown MAC")
	}
}

// TestPredictErrorContract verifies the error/value contract: any failing
// Predict returns the zero Prediction and leaves the graph untouched.
func TestPredictErrorContract(t *testing.T) {
	train, test := campusSplit(t, 20, 4, 10)
	cfg := fastConfig()
	cfg.Incremental = embed.DefaultIncrementalConfig()
	cfg.Incremental.Rounds = -1 // fails validation inside the embed step
	s := New(cfg)
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	before := s.Stats()
	pred, err := s.Predict(&test[0])
	if err == nil {
		t.Fatal("expected embedding-config error from Predict")
	}
	if pred.Floor != 0 || pred.Embedding != nil || pred.ClusterIndex != 0 || pred.Distance != 0 {
		t.Errorf("failed Predict returned non-zero Prediction: %+v", pred)
	}
	if after := s.Stats(); after != before {
		t.Errorf("failed Predict mutated graph: %+v -> %+v", before, after)
	}
}

// TestAbsorbRollbackOnError is the regression test for the seed's state
// leak: when the embedding step fails after the record was inserted, the
// record and any MAC nodes it introduced must be removed again.
func TestAbsorbRollbackOnError(t *testing.T) {
	train, test := campusSplit(t, 20, 4, 11)
	cfg := fastConfig()
	cfg.Incremental = embed.DefaultIncrementalConfig()
	cfg.Incremental.Rounds = -1 // fails validation after the graph insert
	s := New(cfg)
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	before := s.Stats()
	rec := test[0]
	// Add a never-seen MAC so the rollback must also retire a MAC node.
	rec.Readings = append(append([]dataset.Reading(nil), rec.Readings...),
		dataset.Reading{MAC: "brand-new-mac", RSS: -70})
	pred, err := s.Absorb(&rec)
	if err == nil {
		t.Fatal("expected embedding-config error from Absorb")
	}
	if pred.Embedding != nil {
		t.Errorf("failed Absorb returned non-zero Prediction: %+v", pred)
	}
	if after := s.Stats(); after != before {
		t.Errorf("failed Absorb leaked graph state: %+v -> %+v", before, after)
	}
	// A correctly configured system absorbs the same record fine.
	s2 := New(fastConfig())
	if err := s2.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s2.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if _, err := s2.Absorb(&rec); err != nil {
		t.Errorf("Absorb with valid config: %v", err)
	}
}

// TestPredictDoesNotGrowEmbedding pins the snapshot-overlay property:
// Predict must not touch the shared embedding tables.
func TestPredictDoesNotGrowEmbedding(t *testing.T) {
	train, test := campusSplit(t, 20, 4, 12)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	rows := len(s.emb.Ego)
	for i := range test[:10] {
		if _, err := s.Predict(&test[i]); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	if got := len(s.emb.Ego); got != rows {
		t.Errorf("Predict grew embedding table %d -> %d rows", rows, got)
	}
}

func TestPredictBatch(t *testing.T) {
	train, test := campusSplit(t, 30, 4, 9)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	preds, errs := s.PredictBatch(test[:8])
	if len(preds) != 8 || len(errs) != 8 {
		t.Fatalf("batch sizes %d/%d, want 8/8", len(preds), len(errs))
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("batch item %d: %v", i, err)
		}
	}
}
