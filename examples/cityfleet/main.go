// City fleet: the deployment shape of the paper's Microsoft/Kaggle corpus —
// many buildings served by one system. A scan arrives with no building
// context; the portfolio first attributes it to a building by MAC overlap
// (BSSIDs are globally unique) and then identifies the floor with that
// building's GRAFICS model.
//
// The fleet runs under the durable model lifecycle: it lives in a state
// directory, absorbed scans are journaled to a write-ahead log, and the
// example finishes by killing the fleet without ceremony and
// warm-restarting it from disk — the crowd-grown graph survives.
//
//	go run ./examples/cityfleet
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	grafics "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
)

// meanConfidence drives any Classifier — a single building's System or a
// whole Portfolio — over a pool of scans; both implement the same
// context-first contract.
func meanConfidence(ctx context.Context, c grafics.Classifier, pool []dataset.Record) float64 {
	results, errs := c.ClassifyBatch(ctx, pool, grafics.WithoutEmbedding())
	var sum float64
	n := 0
	for i := range results {
		if errs[i] == nil {
			sum += results[i].Confidence
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cityfleet: ")

	// A small city district: five buildings of varying height.
	params := grafics.MicrosoftLikeParams(5, 50, 31)
	corpus, err := grafics.GenerateCorpus(params)
	if err != nil {
		log.Fatalf("generate corpus: %v", err)
	}

	// The fleet lives in a state directory: snapshots plus an absorb WAL.
	stateDir := filepath.Join(os.TempDir(), "grafics-cityfleet-state")
	os.RemoveAll(stateDir) // fresh demo run
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	ctx := context.Background()
	mgr, err := grafics.OpenLifecycleCtx(ctx, cfg, grafics.LifecycleOptions{
		StateDir: stateDir,
		Policy:   grafics.LifecyclePolicy{RefitAfterAbsorbs: 200},
	})
	if err != nil {
		log.Fatalf("open lifecycle: %v", err)
	}
	fleet := mgr.Portfolio()
	holdout := map[string][]dataset.Record{}
	for i := range corpus.Buildings {
		b := &corpus.Buildings[i]
		rng := rand.New(rand.NewSource(int64(i) + 31))
		train, test, err := dataset.Split(b, 0.7, rng)
		if err != nil {
			log.Fatalf("split: %v", err)
		}
		dataset.SelectLabels(train, 4, rng)
		if err := fleet.AddBuildingCtx(ctx, b.Name, train); err != nil {
			log.Fatalf("train %s: %v", b.Name, err)
		}
		holdout[b.Name] = test
		fmt.Printf("registered %-24s %2d floors, %4d training scans\n", b.Name, b.Floors, len(train))
	}

	// Classify a stream of scans from random buildings, with no building
	// hint: attribution + floor identification, with the v2 confidence
	// signal alongside each decision.
	rng := rand.New(rand.NewSource(77))
	names := fleet.Buildings()
	var okBuilding, okFloor, total int
	fmt.Println("\nunattributed scan stream:")
	for i := 0; i < 12; i++ {
		name := names[rng.Intn(len(names))]
		pool := holdout[name]
		scan := pool[rng.Intn(len(pool))]
		routed, err := fleet.ClassifyRouted(ctx, &scan, grafics.WithoutEmbedding())
		if err != nil {
			fmt.Printf("  scan %-28s -> unresolvable: %v\n", scan.ID, err)
			continue
		}
		total++
		if routed.Building == name {
			okBuilding++
		}
		if routed.Result.Floor == scan.Floor {
			okFloor++
		}
		fmt.Printf("  scan from %-24s -> %-24s floor %d (true %d, confidence %.2f, overlap %.0f%%)\n",
			name, routed.Building, routed.Result.Floor, scan.Floor,
			routed.Result.Confidence, routed.Match.Overlap*100)
	}
	fmt.Printf("\nbuilding attribution: %d/%d   floor identification: %d/%d\n",
		okBuilding, total, okFloor, total)

	// The fleet and any single building answer to the same Classifier
	// interface.
	pool := holdout[names[0]]
	sys, err := fleet.System(names[0])
	if err != nil {
		log.Fatalf("system: %v", err)
	}
	fmt.Printf("mean confidence via Portfolio: %.2f, via System: %.2f\n",
		meanConfidence(ctx, fleet, pool), meanConfidence(ctx, sys, pool))

	// An out-of-district scan is rejected rather than misrouted.
	alien := dataset.Record{ID: "tourist", Readings: []dataset.Reading{
		{MAC: "de:ad:be:ef:00:01", RSS: -60},
	}}
	if _, err := fleet.Classify(ctx, &alien); err != nil {
		fmt.Printf("out-of-district scan correctly rejected: %v\n", err)
	}

	// Durability: snapshot the trained fleet, then crowd-grow it through
	// the lifecycle manager — each absorb is journaled to the WAL before
	// it is acknowledged.
	if err := mgr.Snapshot(); err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	absorbed := 0
	for i := 0; i < 8; i++ {
		name := names[rng.Intn(len(names))]
		pool := holdout[name]
		scan := pool[rng.Intn(len(pool))]
		scan.ID = fmt.Sprintf("crowd-%d", i)
		if _, err := mgr.Classify(ctx, &scan, grafics.WithAbsorb()); err == nil {
			absorbed++
		}
	}
	fmt.Printf("\nabsorbed %d crowd scans; WAL holds %d journaled records\n",
		absorbed, mgr.Status().WALRecords)

	// Kill the fleet without ceremony — no close, no final snapshot — and
	// warm-restart from the state dir: snapshot restore + WAL replay.
	mgr = nil
	restarted, err := grafics.OpenLifecycleCtx(ctx, cfg, grafics.LifecycleOptions{StateDir: stateDir})
	if err != nil {
		log.Fatalf("warm restart: %v", err)
	}
	defer restarted.Close()
	fmt.Printf("warm restart: %d buildings restored, %d absorbs replayed from the WAL\n",
		len(restarted.Portfolio().Buildings()), restarted.Status().Replayed)
}
