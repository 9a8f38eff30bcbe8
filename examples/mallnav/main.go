// Mall navigation: the paper's motivating scenario — a multi-floor
// shopping mall where a pedestrian-navigation app must resolve the floor
// before 2-D positioning can run. This example trains GRAFICS on a large
// AP-dense mall, streams online scans through the model as a shopper rides
// escalators between floors, and prints a floor-transition log plus a
// per-floor confusion summary.
//
//	go run ./examples/mallnav
package main

import (
	"context"
	"fmt"
	"log"

	grafics "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mallnav: ")

	// A mall-like facility: large plates, dense APs, six floors.
	params := grafics.HongKongLikeParams(70, 7)
	params.NumBuildings = 1
	params.FloorsMin, params.FloorsMax = 6, 6
	corpus, err := grafics.GenerateCorpus(params)
	if err != nil {
		log.Fatalf("generate corpus: %v", err)
	}
	mall := &corpus.Buildings[0]
	fmt.Printf("mall %q: %d floors, %.0f m² per floor, %d crowdsourced scans\n",
		mall.Name, mall.Floors, mall.AreaM2, len(mall.Records))

	train, test, err := grafics.SplitRecords(mall, 0.7, 7)
	if err != nil {
		log.Fatalf("split: %v", err)
	}
	grafics.SelectLabels(train, 4, 7)

	sys := grafics.New(grafics.Config{})
	if err := sys.AddTraining(train); err != nil {
		log.Fatalf("add training: %v", err)
	}
	if err := sys.Fit(); err != nil {
		log.Fatalf("fit: %v", err)
	}

	// Simulate a shopper: walk a few scans on each floor going up, then
	// back down, drawing scans from the held-out pool of the right floor.
	byFloor := make(map[int][]grafics.Record)
	for i := range test {
		byFloor[test[i].Floor] = append(byFloor[test[i].Floor], test[i])
	}
	var journey []int
	for f := 0; f < mall.Floors; f++ {
		journey = append(journey, f, f) // two scans per floor on the way up
	}
	for f := mall.Floors - 2; f >= 0; f-- {
		journey = append(journey, f)
	}

	ctx := context.Background()
	fmt.Println("\nshopper journey (scan -> predicted floor):")
	cursor := make(map[int]int)
	lastFloor := -1
	correct := 0
	for step, floor := range journey {
		pool := byFloor[floor]
		if len(pool) == 0 {
			continue
		}
		scan := pool[cursor[floor]%len(pool)]
		cursor[floor]++
		pred, err := sys.Classify(ctx, &scan)
		if err != nil {
			log.Fatalf("predict: %v", err)
		}
		marker := ""
		if pred.Floor != floor {
			marker = "  <-- misread"
		} else {
			correct++
		}
		if pred.Floor != lastFloor {
			fmt.Printf("step %2d: floor %d (true %d) — floor change detected%s\n", step, pred.Floor, floor, marker)
			lastFloor = pred.Floor
		} else {
			fmt.Printf("step %2d: floor %d (true %d)%s\n", step, pred.Floor, floor, marker)
		}
	}
	fmt.Printf("\njourney accuracy: %d/%d scans\n", correct, len(journey))

	// Full held-out confusion summary per floor.
	fmt.Println("\nper-floor accuracy on all held-out scans:")
	for f := 0; f < mall.Floors; f++ {
		pool := byFloor[f]
		if len(pool) == 0 {
			continue
		}
		ok := 0
		for i := range pool {
			pred, err := sys.Classify(ctx, &pool[i])
			if err == nil && pred.Floor == f {
				ok++
			}
		}
		fmt.Printf("  floor %d: %3d/%3d (%.0f%%)\n", f, ok, len(pool), 100*float64(ok)/float64(len(pool)))
	}
}
