package lifecycle

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/simulate"
	"repro/internal/wal"
)

// fastConfig keeps Fit cheap enough to run repeatedly in tests.
func fastConfig() core.Config {
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	return cfg
}

// campus builds one 3-floor building's labeled train split plus test pool.
func campus(t testing.TB, recordsPerFloor int, seed int64) (train, test []dataset.Record) {
	t.Helper()
	corpus, err := simulate.Generate(simulate.Campus3F(recordsPerFloor, seed))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	train, test, err = dataset.Split(&corpus.Buildings[0], 0.7, rng)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	dataset.SelectLabels(train, 4, rng)
	return train, test
}

// openManaged opens a Manager over a fresh campus fleet.
func openManaged(t *testing.T, dir string, pol Policy, train []dataset.Record) *Manager {
	t.Helper()
	m, err := OpenCtx(context.Background(), fastConfig(), Options{StateDir: dir, Policy: pol, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(m.Portfolio().Buildings()) == 0 {
		if err := m.Portfolio().AddBuildingCtx(context.Background(), "campus", train); err != nil {
			t.Fatalf("AddBuilding: %v", err)
		}
	}
	return m
}

// absorbN absorbs the first n test scans through the Manager.
func absorbN(t *testing.T, m *Manager, pool []dataset.Record, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := m.Classify(ctx, &pool[i], core.WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}
}

// waitRefitDone polls until no refit is running.
func waitRefitDone(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for m.Refitting() {
		if time.Now().After(deadline) {
			t.Fatal("refit did not finish within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// accuracy scores a classifier on a held-out pool.
func accuracy(t *testing.T, c core.Classifier, pool []dataset.Record) float64 {
	t.Helper()
	results, errs := c.ClassifyBatch(context.Background(), pool, core.WithoutEmbedding())
	ok := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("holdout scan %d: %v", i, errs[i])
		}
		if results[i].Floor == pool[i].Floor {
			ok++
		}
	}
	return float64(ok) / float64(len(pool))
}

// TestCrashRecovery absorbs scans, drops the Manager without any shutdown
// snapshot (the SIGKILL story), and asserts a reopened Manager replays
// the WAL so every absorbed scan — including its novel MAC — is back.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 30, 5)
	m := openManaged(t, dir, Policy{}, train)
	// Initial snapshot so the restart has a model to restore.
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	newMAC := "ca:fe:00:00:00:01"
	rec := test[0]
	rec.Readings = append(rec.Readings[:len(rec.Readings):len(rec.Readings)],
		dataset.Reading{MAC: newMAC, RSS: -45})
	if _, err := m.Classify(context.Background(), &rec, core.WithAbsorb()); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	absorbN(t, m, test[1:], 4)
	// No Snapshot, no Close: simulate a SIGKILL by abandoning the manager.

	m2, err := OpenCtx(context.Background(), fastConfig(), Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer m2.Close()
	if got := m2.Status().Replayed; got != 5 {
		t.Fatalf("replayed %d absorbs, want 5", got)
	}
	sys, err := m2.Portfolio().System("campus")
	if err != nil {
		t.Fatalf("restored fleet missing campus: %v", err)
	}
	if !sys.HasMAC(newMAC) {
		t.Fatal("absorbed MAC lost across crash")
	}
	if got := sys.AbsorbedRecords(); got != 5 {
		t.Fatalf("restored system has %d absorbed records, want 5", got)
	}
	// And it still serves.
	if _, err := m2.Classify(context.Background(), &test[6]); err != nil {
		t.Fatalf("classify after recovery: %v", err)
	}
}

// TestCrashRecoveryTornTail truncates the WAL mid-frame — a crash in the
// middle of an append — and asserts the Manager still boots, recovering
// every complete record.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 30, 7)
	m := openManaged(t, dir, Policy{}, train)
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	absorbN(t, m, test, 6)
	// Abandon (SIGKILL), then tear the final frame.
	walDir := walPath(dir)
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		if !e.IsDir() {
			last = filepath.Join(walDir, e.Name())
		}
	}
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenCtx(context.Background(), fastConfig(), Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("boot with torn WAL tail: %v", err)
	}
	defer m2.Close()
	if got := m2.Status().Replayed; got != 5 {
		t.Fatalf("replayed %d absorbs after torn tail, want 5 (all complete frames)", got)
	}
}

// TestRefitCorrectness is the swap-safety test: absorb labeled synthetic
// scans past the threshold, let the background refit hot-swap the model,
// and assert (a) held-out accuracy does not degrade and (b) every
// classification issued concurrently with the swap succeeds. Run under
// -race in CI.
func TestRefitCorrectness(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 40, 9)
	holdout := test[len(test)/2:]
	absorbPool := test[:len(test)/2]
	const threshold = 10
	if len(absorbPool) < threshold {
		t.Fatalf("need %d absorbable scans, have %d", threshold, len(absorbPool))
	}
	m := openManaged(t, dir, Policy{RefitAfterAbsorbs: threshold}, train)
	defer m.Close()

	before := accuracy(t, m, holdout)

	// Hammer the read path for the whole duration of absorb + refit +
	// swap; any failed classification fails the test.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	readErr := make(chan error, 1)
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stopReads:
					return
				default:
				}
				rec := holdout[(i*7+w)%len(holdout)]
				if _, err := m.Classify(ctx, &rec, core.WithoutEmbedding()); err != nil {
					select {
					case readErr <- fmt.Errorf("reader %d scan %d: %w", w, i, err):
					default:
					}
					return
				}
			}
		}(w)
	}

	absorbN(t, m, absorbPool, threshold)
	waitRefitDone(t, m)
	close(stopReads)
	readers.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("concurrent classification failed during refit/swap: %v", err)
	default:
	}

	st := m.Status()
	if len(st.Buildings) != 1 || st.Buildings[0].Refits < 1 {
		t.Fatalf("expected at least one completed refit, status %+v", st.Buildings)
	}
	if st.Buildings[0].LastRefitError != "" {
		t.Fatalf("refit reported error: %s", st.Buildings[0].LastRefitError)
	}
	// The refitted model trained on the absorbed scans: the graph now has
	// them as training records, and the absorb ledger restarted.
	sys, _ := m.Portfolio().System("campus")
	if got, want := sys.TrainingRecords(), len(train)+threshold; got < want {
		t.Fatalf("refitted model trained on %d records, want >= %d", got, want)
	}

	after := accuracy(t, m, holdout)
	// The corpus only grew, so accuracy must hold up. The holdout is a few
	// dozen scans and E-LINE training is stochastic, so a couple of flips
	// are noise; a broken swap (wrong model, torn state) lands far below
	// both bounds.
	if after < before-0.1 || after < 0.75 {
		t.Fatalf("holdout accuracy degraded after refit: %.3f -> %.3f", before, after)
	}
	t.Logf("holdout accuracy before refit %.3f, after %.3f", before, after)

	// Post-refit the WAL is truncated (absorbs are inside the snapshot).
	if st.WALRecords != 0 {
		t.Fatalf("WAL holds %d records after post-refit snapshot, want 0", st.WALRecords)
	}
	if st.Snapshots < 1 {
		t.Fatal("no snapshot written after refit")
	}

	// A restart restores the refitted fleet with nothing to replay.
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m2, err := OpenCtx(context.Background(), fastConfig(), Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if got := m2.Status().Replayed; got != 0 {
		t.Fatalf("replayed %d records after clean refit+snapshot, want 0", got)
	}
	sys2, err := m2.Portfolio().System("campus")
	if err != nil {
		t.Fatal(err)
	}
	if got := sys2.TrainingRecords(); got != sys.TrainingRecords() {
		t.Fatalf("restored model has %d training records, want %d", got, sys.TrainingRecords())
	}
}

// TestAbsorbsDuringRefitSurviveSwap pins the drain logic: absorbs that
// land while the background Fit is running must exist in the swapped-in
// model.
func TestAbsorbsDuringRefitSurviveSwap(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 40, 21)
	m := openManaged(t, dir, Policy{}, train)
	defer m.Close()
	ctx := context.Background()

	// Start a forced refit, then race absorbs against it. The drain phase
	// replays every absorb that beat the swap; absorbs after the swap land
	// in the new model directly. Either way nothing may be lost.
	macFor := func(i int) string { return fmt.Sprintf("dd:ee:ff:00:00:%02x", i) }
	started, err := m.ForceRefit("campus")
	if err != nil || len(started) != 1 {
		t.Fatalf("ForceRefit: started=%v err=%v", started, err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		rec := test[i]
		rec.Readings = append(rec.Readings[:len(rec.Readings):len(rec.Readings)],
			dataset.Reading{MAC: macFor(i), RSS: -50})
		if _, err := m.Classify(ctx, &rec, core.WithAbsorb()); err != nil {
			t.Fatalf("absorb %d during refit: %v", i, err)
		}
	}
	waitRefitDone(t, m)

	sys, err := m.Portfolio().System("campus")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !sys.HasMAC(macFor(i)) {
			t.Fatalf("absorb %d lost across the hot swap", i)
		}
	}
	if st := m.Status(); st.Buildings[0].LastRefitError != "" {
		t.Fatalf("refit error: %s", st.Buildings[0].LastRefitError)
	}
}

// TestSnapshotTruncatesWAL checks the snapshot/WAL handshake: journaled
// absorbs are dropped from the log exactly when a snapshot has captured
// them.
func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 30, 23)
	m := openManaged(t, dir, Policy{}, train)
	defer m.Close()
	absorbN(t, m, test, 3)
	if got := m.Status().WALRecords; got != 3 {
		t.Fatalf("WAL records = %d, want 3", got)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	st := m.Status()
	if st.WALRecords != 0 {
		t.Fatalf("WAL records after snapshot = %d, want 0", st.WALRecords)
	}
	if st.Snapshots != 1 || st.LastSnapshot.IsZero() {
		t.Fatalf("snapshot accounting wrong: %+v", st)
	}
	// The replayless restart proves the snapshot covered everything.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenCtx(context.Background(), fastConfig(), Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sys, err := m2.Portfolio().System("campus")
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.AbsorbedRecords(); got != 3 {
		t.Fatalf("restored absorbed records = %d, want 3 (from snapshot, not replay)", got)
	}
	if got := m2.Status().Replayed; got != 0 {
		t.Fatalf("replayed = %d, want 0", got)
	}
}

// TestOverlayRatioTrigger exercises the ratio-based staleness policy.
func TestOverlayRatioTrigger(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 30, 25)
	m := openManaged(t, dir, Policy{MaxOverlayRatio: 0.08}, train)
	defer m.Close()
	// len(train) scans * 0.08 rounds to a handful of absorbs.
	want := int(float64(len(train))*0.08) + 1
	absorbN(t, m, test, want)
	waitRefitDone(t, m)
	if st := m.Status(); st.Buildings[0].Refits < 1 {
		t.Fatalf("ratio trigger did not refit: %+v", st.Buildings[0])
	}
}

// TestAgeTrigger exercises the wall-clock trigger with a fake clock.
func TestAgeTrigger(t *testing.T) {
	dir := t.TempDir()
	train, _ := campus(t, 30, 27)
	var clock struct {
		mu  sync.Mutex
		now time.Time
	}
	clock.now = time.Unix(1_700_000_000, 0)
	now := func() time.Time {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		return clock.now
	}
	m, err := OpenCtx(context.Background(), fastConfig(), Options{
		StateDir: dir,
		Policy:   Policy{MaxModelAge: time.Hour, CheckInterval: 10 * time.Millisecond},
		Logf:     t.Logf,
		Now:      now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Portfolio().AddBuildingCtx(context.Background(), "campus", train); err != nil {
		t.Fatal(err)
	}
	m.state("campus") // materialize lastFit under the fake clock
	clock.mu.Lock()
	clock.now = clock.now.Add(2 * time.Hour)
	clock.mu.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := m.Status(); len(st.Buildings) > 0 && st.Buildings[0].Refits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("age trigger did not refit within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManagerWithoutStateDir runs the refit policy with durability
// disabled: no WAL, no snapshots, refits still happen.
func TestManagerWithoutStateDir(t *testing.T) {
	train, test := campus(t, 30, 29)
	m, err := OpenCtx(context.Background(), fastConfig(), Options{Policy: Policy{RefitAfterAbsorbs: 3}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Portfolio().AddBuildingCtx(context.Background(), "campus", train); err != nil {
		t.Fatal(err)
	}
	absorbN(t, m, test, 3)
	waitRefitDone(t, m)
	st := m.Status()
	if st.Buildings[0].Refits < 1 {
		t.Fatalf("refit did not run without state dir: %+v", st.Buildings[0])
	}
	if st.WALRecords != 0 || st.WALSegments != 0 {
		t.Fatalf("unexpected WAL activity without state dir: %+v", st)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot without state dir should be a no-op, got %v", err)
	}
}

// TestRetirementSurvivesCrashAndRefit: DELETE-style AP retirements must
// survive both a SIGKILL (WAL replay) and a refit (graph rebuild from
// records whose readings still reference the MAC).
func TestRetirementSurvivesCrashAndRefit(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 30, 33)
	m := openManaged(t, dir, Policy{}, train)
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	victim := train[0].Readings[0].MAC
	if _, err := m.RemoveMAC(victim); err != nil {
		t.Fatalf("RemoveMAC: %v", err)
	}
	// SIGKILL: abandon without snapshot; the retirement lives only in the
	// WAL.
	m2, err := OpenCtx(context.Background(), fastConfig(), Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	sys, err := m2.Portfolio().System("campus")
	if err != nil {
		t.Fatal(err)
	}
	if sys.HasMAC(victim) {
		t.Fatal("retirement lost across crash (WAL replay)")
	}

	// A refit rebuilds the graph from the accumulated records; the
	// retirement must not be resurrected.
	absorbN(t, m2, test, 2)
	if started, err := m2.ForceRefit("campus"); err != nil || len(started) != 1 {
		t.Fatalf("ForceRefit: %v %v", started, err)
	}
	waitRefitDone(t, m2)
	if st := m2.Status(); st.Buildings[0].LastRefitError != "" {
		t.Fatalf("refit error: %s", st.Buildings[0].LastRefitError)
	}
	sys, err = m2.Portfolio().System("campus")
	if err != nil {
		t.Fatal(err)
	}
	if sys.HasMAC(victim) {
		t.Fatal("retirement resurrected by refit")
	}
	// And the post-refit snapshot carries it: one more clean restart.
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, err := OpenCtx(context.Background(), fastConfig(), Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen after refit: %v", err)
	}
	defer m3.Close()
	sys, err = m3.Portfolio().System("campus")
	if err != nil {
		t.Fatal(err)
	}
	if sys.HasMAC(victim) {
		t.Fatal("retirement lost from post-refit snapshot")
	}
}

// TestWALRecordShape pins the journal format: building attribution plus
// the client's original scan.
func TestWALRecordShape(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 30, 31)
	m := openManaged(t, dir, Policy{}, train)
	rec := test[0]
	if _, err := m.Classify(context.Background(), &rec, core.WithAbsorb()); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var got []wal.Record
	if _, err := wal.Replay(walPath(dir), func(r wal.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Building != "campus" || got[0].Scan.ID != rec.ID {
		t.Fatalf("journal = %+v, want one campus record %q", got, rec.ID)
	}
}

// absorbedNames lists the names of a building's crowd records, training
// (carried by refits) and absorbed, in the order they were absorbed.
func absorbedNames(t *testing.T, m *Manager, building string) []string {
	t.Helper()
	sys, err := m.Portfolio().System(building)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, rec := range sys.CorpusRecords() {
		if strings.HasPrefix(rec.ID, "online-") {
			names = append(names, rec.ID)
		}
	}
	return names
}

// TestReplayReproducesModel: the served model is a function of its log.
// Reads between absorbs change nothing, so a crash and a WAL replay give
// the same absorbed names and bit-identical classifications.
func TestReplayReproducesModel(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 30, 41)
	m := openManaged(t, dir, Policy{}, train)
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	ctx := context.Background()
	absorbs, probes := test[:5], test[5:]
	if len(probes) < 22 {
		t.Fatalf("only %d probe scans, want 22", len(probes))
	}
	probes = probes[:22]
	for i := range absorbs {
		for j := 0; j < 3; j++ {
			if _, err := m.Classify(ctx, &probes[(3*i+j)%len(probes)]); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
		if _, err := m.Classify(ctx, &absorbs[i], core.WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}
	classifyAll := func(m *Manager) []core.Result {
		out := make([]core.Result, len(probes))
		for i := range probes {
			res, err := m.Classify(ctx, &probes[i], core.WithTopK(-1))
			if err != nil {
				t.Fatalf("classify probe %d: %v", i, err)
			}
			out[i] = res
		}
		return out
	}
	names, want := absorbedNames(t, m, "campus"), classifyAll(m)
	// No Snapshot, no Close: simulate a SIGKILL by abandoning the manager.

	m2, err := OpenCtx(ctx, fastConfig(), Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer m2.Close()
	if got := m2.Status().Replayed; got != len(absorbs) {
		t.Fatalf("replayed %d absorbs, want %d", got, len(absorbs))
	}
	if got := absorbedNames(t, m2, "campus"); !reflect.DeepEqual(got, names) {
		t.Fatalf("replay named the absorbs %v, the crashed manager %v", got, names)
	}
	got := classifyAll(m2)
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("probe %d after replay: %+v, before the crash %+v", i, got[i], want[i])
		}
	}
}

// heldCtx holds a refit inside its fit: the first Err call, which comes
// after the refit copied its corpus, closes reached and waits for
// release. Absorbs made meanwhile are exactly the refit's drain.
type heldCtx struct {
	context.Context
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (c *heldCtx) Err() error {
	c.once.Do(func() {
		close(c.reached)
		<-c.release
	})
	return c.Context.Err()
}

// TestRefitKeepsAbsorbNames: a refit carries the building's absorb count,
// so a scan absorbed before the refit can be absorbed again after it, and
// the drain keeps the names of the absorbs that raced the fit.
func TestRefitKeepsAbsorbNames(t *testing.T) {
	train, test := campus(t, 40, 43)
	ctx := context.Background()
	m, err := OpenCtx(ctx, fastConfig(), Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	if err := m.Portfolio().AddBuildingCtx(ctx, "campus", train); err != nil {
		t.Fatalf("AddBuilding: %v", err)
	}
	var want []string
	absorb := func(rec dataset.Record) {
		t.Helper()
		if _, err := m.Classify(ctx, &rec, core.WithAbsorb()); err != nil {
			t.Fatalf("absorb %s (absorb %d): %v", rec.ID, len(want)+1, err)
		}
		want = append(want, fmt.Sprintf("online-%d-%s", len(want)+1, rec.ID))
	}
	refit := func() {
		t.Helper()
		if started, err := m.ForceRefit("campus"); err != nil || len(started) != 1 {
			t.Fatalf("ForceRefit: started=%v err=%v", started, err)
		}
	}
	absorb(test[0])
	refit()
	waitRefitDone(t, m)
	absorb(test[0])

	// Hold the second refit's fit while six absorbs land, so all six are
	// carried over by the drain.
	held := &heldCtx{Context: m.refitCtx, reached: make(chan struct{}), release: make(chan struct{})}
	m.refitCtx = held
	release := sync.OnceFunc(func() { close(held.release) })
	defer release() // before m.Close, which waits for the refit
	refit()
	<-held.reached
	for i := 1; i <= 6; i++ {
		absorb(test[i])
	}
	release()
	waitRefitDone(t, m)
	next, err := m.Portfolio().System("campus")
	if err != nil {
		t.Fatal(err)
	}
	if got := next.AbsorbedRecords(); got != 6 {
		t.Fatalf("the refit carried %d absorbs over, want the 6 that raced its fit", got)
	}
	absorb(test[1])
	if st := m.Status(); st.Buildings[0].LastRefitError != "" {
		t.Fatalf("refit error: %s", st.Buildings[0].LastRefitError)
	}
	if got := absorbedNames(t, m, "campus"); !reflect.DeepEqual(got, want) {
		t.Fatalf("crowd records %v, want %v", got, want)
	}
}
