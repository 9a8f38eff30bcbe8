// Floor-level geofencing: the paper's §I motivates GRAFICS with IoT
// geofencing for home quarantine and elderly care — asserting that a
// person stays on their assigned floor using only ambient RF signals. This
// example trains GRAFICS on an office tower, then monitors a stream of
// scans from several monitored subjects, raising an alert whenever the
// predicted floor leaves the subject's assigned floor for two consecutive
// scans (a debounce against single misreads).
//
//	go run ./examples/geofence
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	grafics "repro"
)

// subject is one monitored person.
type subject struct {
	name          string
	assignedFloor int
	// trajectory is the true floor sequence of their movements.
	trajectory []int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("geofence: ")

	params := grafics.HongKongLikeParams(60, 11)
	params.NumBuildings = 1
	params.FloorsMin, params.FloorsMax = 5, 5
	corpus, err := grafics.GenerateCorpus(params)
	if err != nil {
		log.Fatalf("generate corpus: %v", err)
	}
	tower := &corpus.Buildings[0]

	train, test, err := grafics.SplitRecords(tower, 0.7, 11)
	if err != nil {
		log.Fatalf("split: %v", err)
	}
	grafics.SelectLabels(train, 4, 11)

	sys := grafics.New(grafics.Config{})
	if err := sys.AddTraining(train); err != nil {
		log.Fatalf("add training: %v", err)
	}
	if err := sys.Fit(); err != nil {
		log.Fatalf("fit: %v", err)
	}
	fmt.Printf("geofence armed for tower %q (%d floors)\n\n", tower.Name, tower.Floors)

	byFloor := make(map[int][]grafics.Record)
	for i := range test {
		byFloor[test[i].Floor] = append(byFloor[test[i].Floor], test[i])
	}

	subjects := []subject{
		{name: "alice (quarantine, floor 2)", assignedFloor: 2,
			trajectory: []int{2, 2, 2, 2, 2, 2, 2, 2}},
		{name: "bob (quarantine, floor 3)", assignedFloor: 3,
			trajectory: []int{3, 3, 3, 4, 4, 3, 3, 3}}, // brief violation
		{name: "carol (elderly care, floor 1)", assignedFloor: 1,
			trajectory: []int{1, 1, 0, 0, 0, 1, 1, 1}}, // wandered to lobby
	}

	ctx := context.Background()
	for _, s := range subjects {
		fmt.Printf("-- %s\n", s.name)
		cursor := make(map[int]int)
		violations := 0
		streak := 0
		for step, floor := range s.trajectory {
			pool := byFloor[floor]
			if len(pool) == 0 {
				continue
			}
			scan := pool[cursor[floor]%len(pool)]
			cursor[floor]++
			pred, err := sys.Classify(ctx, &scan)
			if err != nil {
				if errors.Is(err, grafics.ErrOutOfBuilding) {
					fmt.Printf("   t=%d ALERT: subject appears to have left the building\n", step)
					continue
				}
				log.Fatalf("predict: %v", err)
			}
			if pred.Floor != s.assignedFloor {
				streak++
			} else {
				streak = 0
			}
			status := "ok"
			if streak == 1 {
				status = "off-floor reading (debouncing)"
			}
			if streak >= 2 {
				status = "ALERT: off assigned floor"
				violations++
			}
			fmt.Printf("   t=%d predicted floor %d (true %d): %s\n", step, pred.Floor, floor, status)
		}
		if violations == 0 {
			fmt.Println("   summary: compliant")
		} else {
			fmt.Printf("   summary: %d alert(s) raised\n", violations)
		}
		fmt.Println()
	}
}
