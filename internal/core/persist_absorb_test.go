package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/dataset"
)

// TestSaveLoadKeepsAbsorbedRecords is the durability contract behind the
// model-lifecycle subsystem: a snapshot of a crowd-grown system must keep
// the absorbed scans — graph nodes, MACs, and embeddings — so a restart
// classifies exactly like the process that was saved.
func TestSaveLoadKeepsAbsorbedRecords(t *testing.T) {
	train, test := campusSplit(t, 40, 4, 3)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	ctx := context.Background()

	// Grow the graph with absorbed scans, one of which introduces a MAC
	// the training corpus never saw.
	newMAC := "fe:ed:fa:ce:00:01"
	for i := 0; i < 5; i++ {
		rec := test[i]
		if i == 0 {
			rec.Readings = append(rec.Readings[:len(rec.Readings):len(rec.Readings)],
				dataset.Reading{MAC: newMAC, RSS: -55})
		}
		if _, err := s.Classify(ctx, &rec, WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}
	if got := s.AbsorbedRecords(); got != 5 {
		t.Fatalf("AbsorbedRecords = %d, want 5", got)
	}
	if !s.HasMAC(newMAC) {
		t.Fatal("absorbed MAC missing before save")
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	if got, want := loaded.Stats(), s.Stats(); got != want {
		t.Fatalf("loaded stats %+v != saved stats %+v", got, want)
	}
	if got := loaded.AbsorbedRecords(); got != 5 {
		t.Fatalf("loaded AbsorbedRecords = %d, want 5", got)
	}
	if !loaded.HasMAC(newMAC) {
		t.Fatal("absorbed MAC lost across Save/Load")
	}

	// The online pipeline is a function of the model and the scan, so the
	// loaded system must reproduce the original classifications exactly.
	for i := 5; i < 10 && i < len(test); i++ {
		want, err := s.Classify(ctx, &test[i])
		if err != nil {
			t.Fatalf("classify original %d: %v", i, err)
		}
		got, err := loaded.Classify(ctx, &test[i])
		if err != nil {
			t.Fatalf("classify loaded %d: %v", i, err)
		}
		if got.Floor != want.Floor || got.Distance != want.Distance || got.Confidence != want.Confidence {
			t.Fatalf("scan %d: loaded result %+v != original %+v", i, got, want)
		}
	}

	// CorpusRecords covers training plus absorbed, the absorbed records
	// under the names they were given.
	got, want := loaded.CorpusRecords(), s.CorpusRecords()
	if len(got) != len(train)+5 {
		t.Fatalf("CorpusRecords = %d records, want %d", len(got), len(train)+5)
	}
	for i := len(train); i < len(got); i++ {
		if got[i].ID != want[i].ID {
			t.Fatalf("absorbed record %d loaded as %q, saved as %q", i-len(train), got[i].ID, want[i].ID)
		}
	}
}

// TestSaveLoadKeepsRetirements: a MAC retired with RemoveMAC must stay
// retired across Save/Load even though the persisted records still
// reference it (the rebuild would otherwise resurrect the AP).
func TestSaveLoadKeepsRetirements(t *testing.T) {
	train, _ := campusSplit(t, 30, 4, 5)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatal(err)
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	victim := train[0].Readings[0].MAC
	if err := s.RemoveMAC(victim); err != nil {
		t.Fatalf("RemoveMAC: %v", err)
	}
	if got := s.RetiredMACs(); len(got) != 1 || got[0] != victim {
		t.Fatalf("RetiredMACs = %v, want [%s]", got, victim)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.HasMAC(victim) {
		t.Fatal("retired MAC resurrected by Save/Load")
	}
	if got := loaded.RetiredMACs(); len(got) != 1 || got[0] != victim {
		t.Fatalf("loaded RetiredMACs = %v, want [%s]", got, victim)
	}
	if got, want := loaded.Stats(), s.Stats(); got != want {
		t.Fatalf("loaded stats %+v != saved stats %+v", got, want)
	}
}

// TestAbsorbReinstallsRetiredMAC: a retired AP that reappears in an
// absorbed scan is live again and leaves the retirement set.
func TestAbsorbReinstallsRetiredMAC(t *testing.T) {
	train, test := campusSplit(t, 30, 4, 7)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatal(err)
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	victim := train[0].Readings[0].MAC
	if err := s.RemoveMAC(victim); err != nil {
		t.Fatal(err)
	}
	rec := test[0]
	rec.Readings = append(rec.Readings[:len(rec.Readings):len(rec.Readings)],
		dataset.Reading{MAC: victim, RSS: -50})
	if _, err := s.Classify(context.Background(), &rec, WithAbsorb()); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	if !s.HasMAC(victim) {
		t.Fatal("re-absorbed MAC not live")
	}
	if got := s.RetiredMACs(); len(got) != 0 {
		t.Fatalf("RetiredMACs = %v, want empty after re-install", got)
	}
	// Absorb one more scan after the re-install so the rebuild's node
	// alignment past the re-introduced MAC's fresh slot is exercised.
	if _, err := s.Classify(context.Background(), &test[1], WithAbsorb()); err != nil {
		t.Fatalf("absorb after re-install: %v", err)
	}

	// Retire-then-reabsorb gives the MAC a fresh node slot; the snapshot
	// replays the retirement at its original position in the absorb
	// stream, so the rebuild reproduces that slot and everything after it.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load of a retire-then-reabsorb snapshot: %v", err)
	}
	if !loaded.HasMAC(victim) {
		t.Fatal("re-installed MAC not live after Load")
	}
	if got := loaded.RetiredMACs(); len(got) != 0 {
		t.Fatalf("loaded RetiredMACs = %v, want empty", got)
	}
	if got, want := loaded.Stats(), s.Stats(); got != want {
		t.Fatalf("loaded stats %+v != saved stats %+v", got, want)
	}
	for i := 2; i < 5; i++ {
		want, err := s.Classify(context.Background(), &test[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Classify(context.Background(), &test[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.Floor != want.Floor || got.Distance != want.Distance {
			t.Fatalf("scan %d: loaded result %+v != original %+v (embedding misalignment?)", i, got, want)
		}
	}
}
