package grafics_test

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"

	grafics "repro"
	"repro/internal/dataset"
)

// TestIntegrationCorpusPipeline drives the whole data path a downstream
// user would: generate a corpus, round-trip it through JSON and CSV, train
// from the reloaded records, persist the model, reload it, and classify.
func TestIntegrationCorpusPipeline(t *testing.T) {
	corpus, err := grafics.GenerateCorpus(grafics.Campus3FParams(40, 99))
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	dir := t.TempDir()

	// JSON round trip of the corpus.
	jsonPath := filepath.Join(dir, "corpus.json")
	if err := corpus.SaveFile(jsonPath); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	reloaded, err := dataset.LoadFile(jsonPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	building := &reloaded.Buildings[0]

	// CSV round trip of the records.
	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, building.Records); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	records, err := dataset.ReadCSV(&csvBuf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(records) != len(building.Records) {
		t.Fatalf("CSV round trip lost records: %d != %d", len(records), len(building.Records))
	}

	// Train from the CSV-reloaded records.
	building.Records = records
	train, test, err := grafics.SplitRecords(building, 0.7, 99)
	if err != nil {
		t.Fatalf("SplitRecords: %v", err)
	}
	grafics.SelectLabels(train, 4, 99)
	cfg := grafics.Config{}
	cfg.Embed = grafics.DefaultEmbedConfig()
	cfg.Embed.SamplesPerEdge = 40
	sys := grafics.New(cfg)
	if err := sys.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := sys.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}

	// Persist, reload, and classify with the reloaded model.
	modelPath := filepath.Join(dir, "model.gob")
	if err := sys.SaveFile(modelPath); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := grafics.LoadFile(modelPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	correct := 0
	for i := range test {
		pred, err := loaded.Classify(context.Background(), &test[i])
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		if math.IsNaN(pred.Distance) || len(pred.Embedding) == 0 {
			t.Fatal("malformed prediction")
		}
		if pred.Floor == test[i].Floor {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.75 {
		t.Errorf("end-to-end accuracy %v, want >= 0.75", acc)
	}
}

// TestIntegrationLoadRejectsGarbage ensures model loading fails cleanly on
// corrupt input.
func TestIntegrationLoadRejectsGarbage(t *testing.T) {
	if _, err := grafics.Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("Load of garbage should error")
	}
	if _, err := grafics.Load(bytes.NewReader(nil)); err == nil {
		t.Error("Load of empty stream should error")
	}
}
