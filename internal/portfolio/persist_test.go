package portfolio

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestSaveLoadRoundTrip saves a crowd-grown fleet and asserts the loaded
// portfolio classifies identically: same attribution, same floor, same
// distance and confidence (a classification is a function of the model
// and the scan, and Load restores the exact embedding tables).
func TestSaveLoadRoundTrip(t *testing.T) {
	p, tests := fleet(t, 3, 11)
	ctx := context.Background()

	// Grow one building with absorbed scans, one carrying a brand-new MAC,
	// so the round trip covers the crowd-grown state, not just training.
	names := p.Buildings()
	grown := names[0]
	pool := tests[grown]
	newMAC := "0d:0b:ad:c0:ff:ee"
	for i := 0; i < 3; i++ {
		rec := pool[i]
		if i == 0 {
			rec.Readings = append(rec.Readings[:len(rec.Readings):len(rec.Readings)],
				dataset.Reading{MAC: newMAC, RSS: -48})
		}
		if _, err := p.Classify(ctx, &rec, core.WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}

	dir := t.TempDir()
	if err := p.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadPortfolio(dir, core.Config{})
	if err != nil {
		t.Fatalf("LoadPortfolio: %v", err)
	}

	if got, want := loaded.Buildings(), p.Buildings(); len(got) != len(want) {
		t.Fatalf("loaded %d buildings, want %d", len(got), len(want))
	}

	// The absorbed MAC must still attribute scans to the grown building.
	probe := dataset.Record{ID: "probe", Readings: append(
		append([]dataset.Reading(nil), pool[0].Readings...),
		dataset.Reading{MAC: newMAC, RSS: -50})}
	match, err := loaded.Attribute(&probe, 0)
	if err != nil {
		t.Fatalf("attribute after load: %v", err)
	}
	if match.Building != grown {
		t.Fatalf("probe attributed to %q, want %q", match.Building, grown)
	}

	// Identical Classify output before and after the round trip.
	for name, pool := range tests {
		for i := 3; i < 6 && i < len(pool); i++ {
			want, err := p.ClassifyRouted(ctx, &pool[i])
			if err != nil {
				t.Fatalf("%s scan %d (original): %v", name, i, err)
			}
			got, err := loaded.ClassifyRouted(ctx, &pool[i])
			if err != nil {
				t.Fatalf("%s scan %d (loaded): %v", name, i, err)
			}
			if got.Building != want.Building ||
				got.Result.Floor != want.Result.Floor ||
				got.Result.Distance != want.Result.Distance ||
				got.Result.Confidence != want.Result.Confidence {
				t.Fatalf("%s scan %d: loaded %+v != original %+v", name, i, got, want)
			}
		}
	}
}

func TestLoadPortfolioNoManifest(t *testing.T) {
	_, err := LoadPortfolio(t.TempDir(), core.Config{})
	if !errors.Is(err, ErrNoManifest) {
		t.Fatalf("err = %v, want ErrNoManifest", err)
	}
}

// TestSaveCleansStaleSnapshots re-saves a fleet and checks no orphan
// building files accumulate.
func TestSaveCleansStaleSnapshots(t *testing.T) {
	p, _ := fleet(t, 2, 13)
	dir := t.TempDir()
	// Plant a stale building file from a hypothetical earlier fleet.
	stale := filepath.Join(dir, "building-00000000deadbeef.gob")
	if err := os.WriteFile(stale, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot %s survived Save", filepath.Base(stale))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(p.Buildings()) + 1; len(entries) != want { // buildings + manifest
		t.Fatalf("state dir has %d entries, want %d", len(entries), want)
	}
}

// TestReplaceSystem hot-swaps a building's model and checks routing picks
// up the replacement and its MAC set.
func TestReplaceSystem(t *testing.T) {
	p, tests := fleet(t, 2, 17)
	name := p.Buildings()[0]
	old, err := p.System(name)
	if err != nil {
		t.Fatal(err)
	}

	// Refit a replacement on the same corpus.
	repl := core.New(old.Config())
	if err := repl.AddTraining(old.CorpusRecords()); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := repl.FitCtx(context.Background()); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if err := p.ReplaceSystem(name, repl); err != nil {
		t.Fatalf("ReplaceSystem: %v", err)
	}
	got, err := p.System(name)
	if err != nil {
		t.Fatal(err)
	}
	if got != repl {
		t.Fatal("System did not return the replacement")
	}
	// Classification still works through the new model.
	if _, err := p.Classify(context.Background(), &tests[name][0]); err != nil {
		t.Fatalf("classify after swap: %v", err)
	}

	// Unknown building and untrained replacement are rejected.
	if err := p.ReplaceSystem("nope", repl); !errors.Is(err, ErrUnknownBuilding) {
		t.Fatalf("replace unknown = %v, want ErrUnknownBuilding", err)
	}
	if err := p.ReplaceSystem(name, core.New(core.Config{})); !errors.Is(err, core.ErrNotTrained) {
		t.Fatalf("replace with untrained = %v, want ErrNotTrained", err)
	}
}

// TestAbsorbBuilding routes an absorb directly to a named building and
// keeps the attribution index in step.
func TestAbsorbBuilding(t *testing.T) {
	p, tests := fleet(t, 2, 19)
	name := p.Buildings()[1]
	rec := tests[name][0]
	newMAC := "ab:ab:ab:ab:ab:01"
	rec.Readings = append(rec.Readings[:len(rec.Readings):len(rec.Readings)],
		dataset.Reading{MAC: newMAC, RSS: -52})
	if _, err := p.AbsorbBuilding(context.Background(), name, &rec); err != nil {
		t.Fatalf("AbsorbBuilding: %v", err)
	}
	sys, _ := p.System(name)
	if !sys.HasMAC(newMAC) {
		t.Fatal("absorbed MAC missing from graph")
	}
	if _, err := p.AbsorbBuilding(context.Background(), "nope", &rec); !errors.Is(err, ErrUnknownBuilding) {
		t.Fatalf("absorb into unknown building = %v, want ErrUnknownBuilding", err)
	}
}
