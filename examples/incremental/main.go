// Environment churn: the paper stresses that the bipartite graph "can be
// adjusted to reflect installation and removal of APs" and that online
// records extend the graph (§IV-A, §V). This example exercises exactly
// that lifecycle on a campus building:
//
//  1. train on the initial crowdsourced corpus;
//
//  2. absorb a stream of online scans into the graph (Classify with
//     WithAbsorb), including scans that introduce brand-new MACs — newly
//     installed APs;
//
//  3. retire a batch of MACs (decommissioned APs) with RemoveMAC;
//
//  4. keep classifying and track accuracy across all three phases.
//
//     go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"

	grafics "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("incremental: ")

	corpus, err := grafics.GenerateCorpus(grafics.Campus3FParams(80, 23))
	if err != nil {
		log.Fatalf("generate corpus: %v", err)
	}
	building := &corpus.Buildings[0]
	train, test, err := grafics.SplitRecords(building, 0.6, 23)
	if err != nil {
		log.Fatalf("split: %v", err)
	}
	grafics.SelectLabels(train, 4, 23)

	sys := grafics.New(grafics.Config{})
	if err := sys.AddTraining(train); err != nil {
		log.Fatalf("add training: %v", err)
	}
	ctx := context.Background()
	if err := sys.FitCtx(ctx); err != nil {
		log.Fatalf("fit: %v", err)
	}
	fmt.Printf("phase 0 — trained: %+v\n", sys.Stats())

	accuracy := func(pool []grafics.Record) float64 {
		correct, total := 0, 0
		for i := range pool {
			res, err := sys.Classify(ctx, &pool[i], grafics.WithoutEmbedding())
			if err != nil {
				continue
			}
			total++
			if res.Floor == pool[i].Floor {
				correct++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(correct) / float64(total)
	}

	half := len(test) / 2
	stream, holdout := test[:half], test[half:]
	fmt.Printf("phase 0 — holdout accuracy: %.1f%%\n\n", 100*accuracy(holdout))

	// Phase 1: absorb online scans permanently — Classify with the
	// WithAbsorb option keeps each scan (and its new MACs) in the graph.
	// Every third scan also advertises a newly installed AP (a MAC the
	// model has never seen).
	newAPs := 0
	for i := range stream {
		scan := stream[i]
		if i%3 == 0 {
			scan.Readings = append(append([]grafics.Reading(nil), scan.Readings...),
				grafics.Reading{MAC: fmt.Sprintf("new-ap-%03d", i), RSS: -55})
			newAPs++
		}
		if _, err := sys.Classify(ctx, &scan, grafics.WithAbsorb(), grafics.WithoutEmbedding()); err != nil {
			log.Fatalf("absorb: %v", err)
		}
	}
	fmt.Printf("phase 1 — absorbed %d online scans (%d new APs): %+v\n", len(stream), newAPs, sys.Stats())
	fmt.Printf("phase 1 — holdout accuracy: %.1f%%\n\n", 100*accuracy(holdout))

	// Phase 2: decommission the new APs again (e.g. a temporary event
	// network being torn down).
	removed := 0
	for i := range stream {
		if i%3 != 0 {
			continue
		}
		if err := sys.RemoveMAC(fmt.Sprintf("new-ap-%03d", i)); err == nil {
			removed++
		}
	}
	fmt.Printf("phase 2 — removed %d APs: %+v\n", removed, sys.Stats())
	fmt.Printf("phase 2 — holdout accuracy: %.1f%%\n", 100*accuracy(holdout))
}
