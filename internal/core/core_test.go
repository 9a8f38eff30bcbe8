package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/metrics"
	"repro/internal/rfgraph"
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
	if _, err := s.Classify(context.Background(), &rec); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Classify untrained = %v, want ErrNotTrained", err)
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
		pred, err := s.Classify(context.Background(), &test[i])
		if err != nil {
			t.Fatalf("Classify(%s): %v", test[i].ID, err)
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
		if _, err := s.Classify(context.Background(), &test[i]); err != nil {
			t.Fatalf("Classify: %v", err)
		}
	}
	if after := s.Stats(); after != before {
		t.Errorf("Classify mutated graph: %+v -> %+v", before, after)
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
	if _, err := s.Classify(context.Background(), &test[0], WithAbsorb()); err != nil {
		t.Fatalf("absorbing Classify: %v", err)
	}
	after := s.Stats()
	if after.Records != before.Records+1 {
		t.Errorf("absorb did not grow records: %+v -> %+v", before, after)
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
	if _, err := s.Classify(context.Background(), &alien); !errors.Is(err, ErrOutOfBuilding) {
		t.Errorf("alien Classify = %v, want ErrOutOfBuilding", err)
	}
	// Degenerate scans report the same identity from both entry points.
	empty := dataset.Record{ID: "empty"}
	if _, err := s.Classify(context.Background(), &empty); !errors.Is(err, ErrOutOfBuilding) {
		t.Errorf("empty Classify = %v, want ErrOutOfBuilding", err)
	}
	if _, err := s.Classify(context.Background(), &empty, WithAbsorb()); !errors.Is(err, ErrOutOfBuilding) {
		t.Errorf("empty absorb = %v, want ErrOutOfBuilding", err)
	}
	if _, err := s.Classify(context.Background(), &alien, WithAbsorb()); !errors.Is(err, ErrOutOfBuilding) {
		t.Errorf("alien absorb = %v, want ErrOutOfBuilding", err)
	}
}

// TestOutOfBuildingBeatsBadWeight: a scan that shares no MAC with the
// building is ErrOutOfBuilding even when one of its readings has an
// unusable weight, on both entry points; the same bad reading beside a
// known MAC is the weight error.
func TestOutOfBuildingBeatsBadWeight(t *testing.T) {
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
		{MAC: "never-seen-2", RSS: -500},
	}}
	for _, opts := range [][]Option{nil, {WithAbsorb()}} {
		if _, err := s.Classify(context.Background(), &alien, opts...); !errors.Is(err, ErrOutOfBuilding) || errors.Is(err, rfgraph.ErrBadWeight) {
			t.Errorf("alien scan with a -500 dBm reading (%d options) = %v, want ErrOutOfBuilding", len(opts), err)
		}
	}
	known := dataset.Record{ID: "known", Readings: []dataset.Reading{
		train[0].Readings[0],
		{MAC: "never-seen-2", RSS: -500},
	}}
	if _, err := s.Classify(context.Background(), &known); !errors.Is(err, rfgraph.ErrBadWeight) {
		t.Errorf("known MAC beside a -500 dBm reading = %v, want ErrBadWeight", err)
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
		a, err := s.Classify(context.Background(), &test[i])
		if err != nil {
			t.Fatalf("Classify original: %v", err)
		}
		b, err := loaded.Classify(context.Background(), &test[i])
		if err != nil {
			t.Fatalf("Classify loaded: %v", err)
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

// TestLoadLegacyEmbedConfig: snapshots written while training could run
// Hogwild store embed.Config with a Workers field, and daemons stored
// StrategyFast in it. gob drops the retired field and the strategy is
// ignored, so such a snapshot loads, classifies, and refits — to exactly
// the model a fresh fit of its corpus gives.
func TestLoadLegacyEmbedConfig(t *testing.T) {
	type legacyEmbed struct {
		Mode            embed.Mode
		Dim             int
		LearningRate    float64
		NegativeSamples int
		SamplesPerEdge  int
		Dropout         float64
		Strategy        embed.Strategy
		Workers         int
		Seed            int64
	}
	type legacyConfig struct {
		Weight      WeightSpec
		Embed       legacyEmbed
		Incremental embed.IncrementalConfig
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
	e := snap.Config.Embed
	legacy := legacySnapshot{
		Config: legacyConfig{
			Weight: snap.Config.Weight,
			Embed: legacyEmbed{
				Mode: e.Mode, Dim: e.Dim, LearningRate: e.LearningRate,
				NegativeSamples: e.NegativeSamples, SamplesPerEdge: e.SamplesPerEdge,
				Dropout: e.Dropout, Strategy: embed.StrategyFast, Workers: 4, Seed: e.Seed,
			},
			Incremental: snap.Config.Incremental,
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
	want := e
	want.Strategy = embed.StrategyFast
	if got := loaded.Config().Embed; got != want {
		t.Errorf("loaded embed config %+v, want %+v", got, want)
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
	// Refit the way lifecycle does: a new System from the loaded config
	// over the loaded corpus.
	refit := New(loaded.Config())
	if err := refit.AddTraining(loaded.CorpusRecords()); err != nil {
		t.Fatalf("refit AddTraining: %v", err)
	}
	if err := refit.Fit(); err != nil {
		t.Fatalf("refit Fit: %v", err)
	}
	for i := 0; i < s.TrainingRecords(); i++ {
		a, err := s.TrainingEmbedding(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := refit.TrainingEmbedding(i)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("refit of legacy snapshot: training record %d embeds to %v, fresh fit %v", i, b, a)
		}
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
// Classify returns the zero Result and leaves the graph untouched.
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
	pred, err := s.Classify(context.Background(), &test[0])
	if err == nil {
		t.Fatal("expected embedding-config error from Classify")
	}
	if pred.Floor != 0 || pred.Embedding != nil || pred.ClusterIndex != 0 || pred.Distance != 0 {
		t.Errorf("failed Classify returned non-zero Result: %+v", pred)
	}
	if after := s.Stats(); after != before {
		t.Errorf("failed Classify mutated graph: %+v -> %+v", before, after)
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
	pred, err := s.Classify(context.Background(), &rec, WithAbsorb())
	if err == nil {
		t.Fatal("expected embedding-config error from absorb")
	}
	if pred.Embedding != nil {
		t.Errorf("failed absorb returned non-zero Result: %+v", pred)
	}
	if after := s.Stats(); after != before {
		t.Errorf("failed absorb leaked graph state: %+v -> %+v", before, after)
	}
	// A correctly configured system absorbs the same record fine.
	s2 := New(fastConfig())
	if err := s2.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s2.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if _, err := s2.Classify(context.Background(), &rec, WithAbsorb()); err != nil {
		t.Errorf("absorb with valid config: %v", err)
	}
}

// TestPredictDoesNotGrowEmbedding pins the snapshot-overlay property: a
// read-only Classify must not touch the shared embedding tables.
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
		if _, err := s.Classify(context.Background(), &test[i]); err != nil {
			t.Fatalf("Classify: %v", err)
		}
	}
	if got := len(s.emb.Ego); got != rows {
		t.Errorf("Classify grew embedding table %d -> %d rows", rows, got)
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
	preds, errs := s.ClassifyBatch(context.Background(), test[:8])
	if len(preds) != 8 || len(errs) != 8 {
		t.Fatalf("batch sizes %d/%d, want 8/8", len(preds), len(errs))
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("batch item %d: %v", i, err)
		}
	}
}
