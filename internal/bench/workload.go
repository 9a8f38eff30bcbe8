// Package bench is the reproducible benchmark harness for both sides of
// the GRAFICS pipeline: the serving hot path (open-/closed-loop
// classification load with per-request latency recording) and the
// offline fit path (RunFit: end-to-end model builds with wall clock,
// records/s throughput, and peak-heap estimates). It generates
// deterministic synthetic workloads over dataset.Records and emits
// machine-readable reports (BENCH.json) so the performance trajectory is
// tracked PR over PR and CI can gate regressions — latency, allocations,
// fit wall clock and memory, and a fit-throughput floor
// (CompareFitThroughput) under single-goroutine training speed — against
// a committed baseline.
package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/simulate"
)

// WorkloadSpec configures the deterministic synthetic workload. The zero
// value of any field is replaced by the defaults below, so a partially
// filled spec stays valid.
type WorkloadSpec struct {
	// Buildings is how many campus buildings the fleet holds (the core
	// scenario uses only the first; portfolio and HTTP scenarios route
	// across all of them).
	Buildings int `json:"buildings"`
	// RecordsPerFloor sizes each building's corpus.
	RecordsPerFloor int `json:"records_per_floor"`
	// LabelsPerFloor is the per-floor label budget granted to training.
	LabelsPerFloor int `json:"labels_per_floor"`
	// TrainFraction splits each building's records into train and query
	// pools.
	TrainFraction float64 `json:"train_fraction"`
	// Queries is the size of the query pool drawn from the held-out
	// records (the driver cycles through it when it needs more requests).
	Queries int `json:"queries"`
	// Seed roots every random choice; a fixed seed reproduces the
	// workload bit for bit.
	Seed int64 `json:"seed"`
}

// DefaultWorkloadSpec returns the smoke-scale workload used by CI: small
// enough to train in seconds, large enough that latency percentiles are
// meaningful.
func DefaultWorkloadSpec() WorkloadSpec {
	return WorkloadSpec{
		Buildings:       3,
		RecordsPerFloor: 40,
		LabelsPerFloor:  4,
		TrainFraction:   0.7,
		Queries:         240,
		Seed:            1,
	}
}

func (s WorkloadSpec) normalized() WorkloadSpec {
	def := DefaultWorkloadSpec()
	if s.Buildings <= 0 {
		s.Buildings = def.Buildings
	}
	if s.RecordsPerFloor <= 0 {
		s.RecordsPerFloor = def.RecordsPerFloor
	}
	if s.LabelsPerFloor <= 0 {
		s.LabelsPerFloor = def.LabelsPerFloor
	}
	if s.TrainFraction <= 0 || s.TrainFraction >= 1 {
		s.TrainFraction = def.TrainFraction
	}
	if s.Queries <= 0 {
		s.Queries = def.Queries
	}
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	return s
}

// BuildingWorkload is one building's training corpus.
type BuildingWorkload struct {
	Name  string
	Train []dataset.Record
}

// Workload is a generated benchmark input: per-building training corpora
// and a shuffled pool of held-out query scans. Queries carry no options;
// the driver decides how to classify them.
type Workload struct {
	Spec      WorkloadSpec
	Buildings []BuildingWorkload
	// Queries is the query pool in driver order, mixed across buildings
	// so fleet-level scenarios exercise attribution on every request.
	Queries []dataset.Record
}

// NewWorkload generates the deterministic workload for spec: one Campus3F
// corpus per building (decorrelated seeds), stratified train/query splits,
// and a label budget per floor — the same pipeline the test suites use, at
// a configurable scale.
func NewWorkload(spec WorkloadSpec) (*Workload, error) {
	spec = spec.normalized()
	w := &Workload{Spec: spec}
	var queries []dataset.Record
	for b := 0; b < spec.Buildings; b++ {
		corpus, err := simulate.Generate(simulate.Campus3F(spec.RecordsPerFloor, spec.Seed+int64(b)*1009))
		if err != nil {
			return nil, fmt.Errorf("bench: building %d: %w", b, err)
		}
		name := fmt.Sprintf("campus-%02d", b)
		rng := rand.New(rand.NewSource(spec.Seed + int64(b)*2003 + 1))
		train, test, err := dataset.Split(&corpus.Buildings[0], spec.TrainFraction, rng)
		if err != nil {
			return nil, fmt.Errorf("bench: split building %d: %w", b, err)
		}
		dataset.SelectLabels(train, spec.LabelsPerFloor, rng)
		// Prefix record IDs with the building so queries stay traceable
		// after the pools are mixed.
		for i := range test {
			test[i].ID = fmt.Sprintf("%s/%s", name, test[i].ID)
		}
		w.Buildings = append(w.Buildings, BuildingWorkload{Name: name, Train: train})
		queries = append(queries, test...)
	}
	rng := rand.New(rand.NewSource(spec.Seed + 4001))
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	if len(queries) > spec.Queries {
		queries = queries[:spec.Queries]
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("bench: workload produced no queries (records_per_floor %d too small)", spec.RecordsPerFloor)
	}
	w.Queries = queries
	return w, nil
}
