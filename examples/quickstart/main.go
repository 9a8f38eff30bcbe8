// Quickstart: train GRAFICS on a synthetic three-story campus building and
// classify held-out scans. This is the minimal end-to-end use of the
// public API:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	grafics "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// 1. Obtain a crowdsourced corpus. Real deployments load scans
	// collected by users; here we synthesize a three-story campus
	// building with 80 scans per floor.
	corpus, err := grafics.GenerateCorpus(grafics.Campus3FParams(80, 42))
	if err != nil {
		log.Fatalf("generate corpus: %v", err)
	}
	building := &corpus.Buildings[0]
	fmt.Printf("building %q: %d floors, %d scans, %d distinct MACs\n",
		building.Name, building.Floors, len(building.Records), building.DistinctMACs())

	// 2. Split into a training corpus and held-out scans, and reveal only
	// four floor labels per floor — the paper's label budget.
	train, test, err := grafics.SplitRecords(building, 0.7, 42)
	if err != nil {
		log.Fatalf("split: %v", err)
	}
	granted := grafics.SelectLabels(train, 4, 42)
	fmt.Printf("training on %d scans of which %d are labeled\n", len(train), granted)

	// 3. Offline training: bipartite graph -> E-LINE embeddings ->
	// proximity-based hierarchical clustering.
	sys := grafics.New(grafics.Config{})
	if err := sys.AddTraining(train); err != nil {
		log.Fatalf("add training: %v", err)
	}
	ctx := context.Background()
	if err := sys.FitCtx(ctx); err != nil {
		log.Fatalf("fit: %v", err)
	}
	st := sys.Stats()
	fmt.Printf("trained: %d record nodes, %d MAC nodes, %d edges\n", st.Records, st.MACs, st.Edges)

	// 4. Online inference on every held-out scan. Classify is the
	// context-first entry point: it honors cancellation/deadlines and
	// reports a confidence for the winning floor.
	correct := 0
	var confSum float64
	for i := range test {
		res, err := sys.Classify(ctx, &test[i], grafics.WithoutEmbedding())
		if err != nil {
			log.Fatalf("classify %s: %v", test[i].ID, err)
		}
		confSum += res.Confidence
		if res.Floor == test[i].Floor {
			correct++
		}
	}
	fmt.Printf("accuracy on %d held-out scans: %.1f%% (mean confidence %.2f)\n",
		len(test), 100*float64(correct)/float64(len(test)), confSum/float64(len(test)))

	// 5. Ask one scan for its full candidate ranking: WithTopK exposes
	// the runner-up floors and their confidence shares.
	res, err := sys.Classify(ctx, &test[0], grafics.WithTopK(-1), grafics.WithoutEmbedding())
	if err != nil {
		log.Fatalf("classify: %v", err)
	}
	fmt.Printf("scan %s candidates:\n", test[0].ID)
	for _, c := range res.Candidates {
		fmt.Printf("  floor %d  confidence %.3f  distance %.4f\n", c.Floor, c.Confidence, c.Distance)
	}
}
