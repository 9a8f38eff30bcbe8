package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/rfgraph"
)

// scanPool returns up to n scans: the held-out split first, then training
// records, which classify like any other scan.
func scanPool(t *testing.T, n int) (*System, []dataset.Record) {
	t.Helper()
	train, test := campusSplit(t, 40, 4, 7)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatalf("FitCtx: %v", err)
	}
	pool := append(append([]dataset.Record(nil), test...), train...)
	if len(pool) < n {
		t.Fatalf("only %d scans, want %d", len(pool), n)
	}
	return s, pool[:n]
}

// saveLoad round-trips s through a snapshot.
func saveLoad(t *testing.T, s *System) *System {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return loaded
}

// TestClassifyTwiceSameResult: a classification is a function of the
// model and the scan, so classifying one scan again, after other reads,
// gives the identical Result.
func TestClassifyTwiceSameResult(t *testing.T) {
	s, pool := scanPool(t, 20)
	ctx := context.Background()
	want, err := s.Classify(ctx, &pool[0], WithTopK(-1))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	for i := 1; i < len(pool); i++ {
		if _, err := s.Classify(ctx, &pool[i]); err != nil {
			t.Fatalf("Classify(%s): %v", pool[i].ID, err)
		}
	}
	got, err := s.Classify(ctx, &pool[0], WithTopK(-1))
	if err != nil {
		t.Fatalf("Classify again: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan %s classified twice: %+v, then %+v", pool[0].ID, want, got)
	}
}

// TestLoadedCopiesClassifyAlike: two Systems loaded from one snapshot
// answer alike even when one of them has served reads the other has not,
// as a follower and its primary do.
func TestLoadedCopiesClassifyAlike(t *testing.T) {
	s, pool := scanPool(t, 50)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Classify(ctx, &pool[i], WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}
	busy, idle := saveLoad(t, s), saveLoad(t, s)
	for i := 0; i < 100; i++ {
		if _, err := busy.Classify(ctx, &pool[(i*7)%len(pool)]); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	for i := range pool {
		want, err := idle.Classify(ctx, &pool[i], WithTopK(-1))
		if err != nil {
			t.Fatalf("idle Classify(%s): %v", pool[i].ID, err)
		}
		got, err := busy.Classify(ctx, &pool[i], WithTopK(-1))
		if err != nil {
			t.Fatalf("busy Classify(%s): %v", pool[i].ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan %s: the copy that served 100 reads gave %+v, the idle copy %+v", pool[i].ID, got, want)
		}
	}
}

// absorbedIDs lists the names of s's absorbed records, in order.
func absorbedIDs(s *System) []string {
	corpus := s.CorpusRecords()
	var ids []string
	for _, rec := range corpus[s.TrainingRecords():] {
		ids = append(ids, rec.ID)
	}
	return ids
}

// TestAbsorbNamesCountAbsorbsOnly: reads do not advance the absorb count,
// so the n-th absorb is named online-<n>-<id> whatever was read between.
func TestAbsorbNamesCountAbsorbsOnly(t *testing.T) {
	s, pool := scanPool(t, 12)
	ctx := context.Background()
	var want []string
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if _, err := s.Classify(ctx, &pool[4+2*i+j]); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
		if _, err := s.Classify(ctx, &pool[i], WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
		want = append(want, fmt.Sprintf("online-%d-%s", i+1, pool[i].ID))
	}
	if got := absorbedIDs(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("absorbed names %v, want %v", got, want)
	}
	// The count survives a snapshot: the next absorb continues it.
	loaded := saveLoad(t, s)
	if _, err := loaded.Classify(ctx, &pool[0], WithAbsorb()); err != nil {
		t.Fatalf("absorb after Load: %v", err)
	}
	want = append(want, "online-5-"+pool[0].ID)
	if got := absorbedIDs(loaded); !reflect.DeepEqual(got, want) {
		t.Fatalf("absorbed names after Load %v, want %v", got, want)
	}
}

// TestCarryKeepsNames: a refit carries the absorbs that landed during its
// fit under the names they have, with the old system's absorb count, so
// absorbing one of their scans again names a new record.
func TestCarryKeepsNames(t *testing.T) {
	old, pool := scanPool(t, 6)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := old.Classify(ctx, &pool[i], WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}
	corpus := old.CorpusRecords()
	drained := len(corpus) - old.TrainingRecords()
	// These land while the refit trains.
	for i := 2; i < 4; i++ {
		if _, err := old.Classify(ctx, &pool[i], WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}
	next := New(old.Config())
	if err := next.AddTraining(corpus); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := next.FitCtx(ctx); err != nil {
		t.Fatalf("FitCtx: %v", err)
	}
	if err := next.Carry(old, drained); err != nil {
		t.Fatalf("Carry: %v", err)
	}
	tail := absorbedIDs(old)[drained:]
	if got := absorbedIDs(next); !reflect.DeepEqual(got, tail) {
		t.Fatalf("carried names %v, want %v", got, tail)
	}
	if _, err := next.Classify(ctx, &pool[0], WithAbsorb()); err != nil {
		t.Fatalf("absorb of an already absorbed scan after the refit: %v", err)
	}
	if got, want := absorbedIDs(next)[len(tail)], "online-5-"+pool[0].ID; got != want {
		t.Fatalf("absorb after the refit named %q, want %q", got, want)
	}
}

// TestLoadLegacySnapshotAbsorbsAgain: snapshots written before the absorb
// count existed named absorbs by a sequence that reads also advanced and
// that a refit restarted, stored as PredictSeq. Such a snapshot loads and
// keeps absorbing without reusing a name: the count starts at 0 and
// skips the names its corpus already holds.
func TestLoadLegacySnapshotAbsorbsAgain(t *testing.T) {
	type legacySnapshot struct {
		Config       Config
		TrainRecords []dataset.Record
		Absorbed     []dataset.Record
		RetireLog    []RetireEvent
		Nodes        int
		Dim          int
		Ego          [][]float64
		Ctx          [][]float64
		Model        cluster.Model
		PredictSeq   int
	}
	train, test := campusSplit(t, 30, 4, 6)
	x, y := test[0], test[1]
	// As a refit left it: x absorbed before the refit is a training
	// record named by the old sequence, and the sequence restarted.
	refitted := append(append([]dataset.Record(nil), train...), x)
	refitted[len(train)].ID = "online-3-" + x.ID
	s := New(fastConfig())
	if err := s.AddTraining(refitted); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatalf("FitCtx: %v", err)
	}
	if _, err := s.Classify(context.Background(), &y, WithAbsorb()); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var snap snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// A read, then the absorb of y, since the refit.
	snap.Absorbed[0].ID = "online-2-" + y.ID
	legacy := legacySnapshot{
		Config:       snap.Config,
		TrainRecords: snap.TrainRecords,
		Absorbed:     snap.Absorbed,
		RetireLog:    snap.RetireLog,
		Nodes:        snap.Nodes,
		Dim:          snap.Dim,
		Ego:          snap.Ego,
		Ctx:          snap.Ctx,
		Model:        snap.Model,
		PredictSeq:   2,
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatalf("encode legacy snapshot: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load legacy snapshot: %v", err)
	}
	for _, rec := range []dataset.Record{x, y} {
		if _, err := loaded.Classify(context.Background(), &rec, WithAbsorb()); err != nil {
			if errors.Is(err, rfgraph.ErrDuplicateRecord) {
				t.Fatalf("absorb of %s reused a name: %v", rec.ID, err)
			}
			t.Fatalf("absorb of %s: %v", rec.ID, err)
		}
	}
	want := []string{"online-2-" + y.ID, "online-1-" + x.ID, "online-3-" + y.ID}
	if got := absorbedIDs(loaded); !reflect.DeepEqual(got, want) {
		t.Fatalf("absorbed names %v, want %v", got, want)
	}
}

// TestScanSeedIsFNV1a pins the online seed's hash: FNV-1a 64 over each
// reading's MAC bytes and then its RSS bits in little-endian order, in
// the order sent. Changing it changes every online embedding.
func TestScanSeedIsFNV1a(t *testing.T) {
	readings := []dataset.Reading{{MAC: "aa:bb", RSS: -50.5}, {MAC: "c", RSS: -71}}
	ref := fnv.New64a()
	for _, rd := range readings {
		ref.Write([]byte(rd.MAC))
		ref.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(rd.RSS)))
	}
	h := ref.Sum64()
	if got := scanSeed(readings); got != h {
		t.Fatalf("scanSeed = %#x, want FNV-1a 64 %#x", got, h)
	}
	swapped := []dataset.Reading{readings[1], readings[0]}
	if scanSeed(swapped) == h {
		t.Fatal("scanSeed ignores the order of the readings")
	}
	if n := testing.AllocsPerRun(100, func() { scanSeed(readings) }); n != 0 {
		t.Fatalf("scanSeed allocates %v times per call", n)
	}
}
