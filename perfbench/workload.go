package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/dataset"
)

// workloadSpec is one named benchmark workload. Rates are frozen: they
// were calibrated once (perfbench -calibrate) to about 40% of each
// workload's closed-loop capacity on a 2-core x86-64 container, noted
// beside each rate, and are never recomputed at run time, so a parent
// commit and its change see identical offered load. Why each workload
// exists is recorded in BENCHMARK.json.
type workloadSpec struct {
	Name            string
	Buildings       int
	RecordsPerFloor int
	// Groups is the number of shard groups (one primary node each)
	// behind an in-process fleet.Router; 0 means one single-role node.
	Groups int
	// NeighbourMACs weak readings copied from building i+1, which always
	// sits in another group, are appended to every query of building i.
	NeighbourMACs int
	// Rate is the fixed open-loop rate of the main phase, requests/s.
	Rate float64
	// AbsorbEvery makes every n-th request of the stream a unique-ID
	// absorb (0: reads only).
	AbsorbEvery int
	// RefitLoop forces a refit of each building in turn, one every
	// refitPeriod, for as long as traffic runs; otherwise refits are
	// timed on a quiet node after the traffic phases.
	RefitLoop bool
	// P99LimitMS is the read p99 the rate ladder must keep.
	P99LimitMS float64
	// MinMicroF is the frozen correctness floor on micro-F.
	MinMicroF float64
}

// workloads is the benchmark's workload table, in the order a full run
// executes them.
var workloads = []workloadSpec{
	{
		Name: "read-3b", Buildings: 3, RecordsPerFloor: 120,
		Rate: 650, P99LimitMS: 10, MinMicroF: 0.80, // capacity 1600-2000/s
	},
	{
		Name: "read-fleet-48b", Buildings: 48, RecordsPerFloor: 20, Groups: 2, NeighbourMACs: 2,
		Rate: 330, P99LimitMS: 20, MinMicroF: 0.80, // capacity 830-980/s
	},
	{
		Name: "absorb-mix", Buildings: 3, RecordsPerFloor: 120,
		Rate: 260, AbsorbEvery: 3, P99LimitMS: 20, MinMicroF: 0.80, // capacity 660-700/s
	},
	{
		Name: "refit-under-load", Buildings: 3, RecordsPerFloor: 120,
		// A refit stalls reads for a few hundred milliseconds, so the
		// ladder's limit here is about backlog, not the stall.
		Rate: 220, AbsorbEvery: 20, RefitLoop: true, P99LimitMS: 500, MinMicroF: 0.80, // capacity 560-660/s
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// query is one held-out scan with its ground truth and its request body
// parts rendered once, so senders measure the system rather than client
// JSON encoding.
type query struct {
	rec      dataset.Record
	building int // index into inputs.names
	readBody []byte
	// readings is the JSON array of the scan's readings; absorb bodies
	// splice it behind a per-request unique ID.
	readings []byte
}

// inputs is everything a workload run derives from its seed.
type inputs struct {
	spec    workloadSpec
	corpora []bench.BuildingWorkload
	names   []string
	index   map[string]int // building name → index
	queries []query
}

// newInputs generates the workload's buildings and query pool from seed:
// the same seed gives the same inputs.
func newInputs(spec workloadSpec, seed int64) (*inputs, error) {
	wl, err := bench.NewWorkload(bench.WorkloadSpec{
		Buildings:       spec.Buildings,
		RecordsPerFloor: spec.RecordsPerFloor,
		// Keep every held-out scan: the pool is cycled, and its size is
		// reported with the run.
		Queries: spec.Buildings * spec.RecordsPerFloor * 3,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: spec, corpora: wl.Buildings, index: make(map[string]int)}
	for i, b := range wl.Buildings {
		in.names = append(in.names, b.Name)
		in.index[b.Name] = i
	}
	rng := rand.New(rand.NewSource(seed + 7919))
	for _, rec := range wl.Queries {
		name, _, ok := strings.Cut(rec.ID, "/")
		if !ok {
			return nil, fmt.Errorf("query %q carries no building prefix", rec.ID)
		}
		b := in.index[name]
		if spec.NeighbourMACs > 0 {
			rec.Readings = append(append([]dataset.Reading(nil), rec.Readings...),
				neighbourReadings(in.corpora[(b+1)%len(in.corpora)].Train, spec.NeighbourMACs, rng)...)
		}
		q, err := newQuery(rec, b)
		if err != nil {
			return nil, err
		}
		in.queries = append(in.queries, q)
	}
	return in, nil
}

// neighbourReadings returns n distinct MACs heard in a neighbouring
// building, at the weak RSS a scan picks up through an outside wall.
func neighbourReadings(train []dataset.Record, n int, rng *rand.Rand) []dataset.Reading {
	seen := make(map[string]bool)
	var out []dataset.Reading
	for len(out) < n {
		rec := &train[rng.Intn(len(train))]
		mac := rec.Readings[rng.Intn(len(rec.Readings))].MAC
		if !seen[mac] {
			seen[mac] = true
			out = append(out, dataset.Reading{MAC: mac, RSS: -85})
		}
	}
	return out
}

func newQuery(rec dataset.Record, building int) (query, error) {
	readings, err := json.Marshal(rec.Readings)
	if err != nil {
		return query{}, fmt.Errorf("marshal scan %s: %w", rec.ID, err)
	}
	q := query{rec: rec, building: building, readings: readings}
	q.readBody = q.body(nil, -1)
	return q, nil
}

// body appends the request body for q to dst. A non-negative seq gives
// the scan the unique ID "<id>~<seq>", which absorbs need: the same
// held-out scan is absorbed many times over a run.
func (q *query) body(dst []byte, seq int) []byte {
	dst = append(dst, `{"id":`...)
	id := q.rec.ID
	if seq >= 0 {
		id += "~" + strconv.Itoa(seq)
	}
	dst = strconv.AppendQuote(dst, id)
	dst = append(dst, `,"readings":`...)
	dst = append(dst, q.readings...)
	return append(dst, '}')
}

// label encodes a (building, floor) pair as one class for the F-scores;
// a wrong building is a wrong class.
func label(building, floor int) int { return building*1000 + floor }
