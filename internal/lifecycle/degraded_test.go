package lifecycle

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wal"
)

// TestDegradedReadOnlyMode kills the journal disk under a manager and
// walks the full degradation cycle: consecutive journal failures trip
// degraded mode, absorbs are refused with ErrDegraded (carrying a
// Retry-After hint) without touching the sick disk, reads keep serving,
// and once the disk heals the next probe absorb restores write service.
func TestDegradedReadOnlyMode(t *testing.T) {
	train, test := campus(t, 30, 7)
	disk := fault.NewDisk()

	var clockMu sync.Mutex
	clock := time.Now()
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		defer clockMu.Unlock()
		clock = clock.Add(d)
	}

	m, err := OpenCtx(context.Background(), fastConfig(), Options{
		StateDir:          t.TempDir(),
		Logf:              t.Logf,
		Now:               now,
		DegradedThreshold: 2,
		DegradedProbe:     5 * time.Second,
		WAL: wal.Options{
			OpenFile: func(name string, flag int, perm os.FileMode) (wal.File, error) {
				return disk.OpenFile(name, flag, perm)
			},
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	if err := m.Portfolio().AddBuildingCtx(context.Background(), "campus", train); err != nil {
		t.Fatalf("AddBuilding: %v", err)
	}
	ctx := context.Background()

	if _, err := m.Classify(ctx, &test[0], core.WithAbsorb()); err != nil {
		t.Fatalf("healthy absorb: %v", err)
	}

	disk.FailWritesAfter(0, errors.New("disk died"))
	for i := 1; i <= 2; i++ {
		_, err := m.Classify(ctx, &test[i], core.WithAbsorb())
		if err == nil {
			t.Fatalf("absorb %d: expected journal failure", i)
		}
		if errors.Is(err, ErrDegraded) {
			t.Fatalf("absorb %d: degraded before threshold: %v", i, err)
		}
	}

	// Threshold reached: absorbs now shed without touching the disk.
	_, err = m.Classify(ctx, &test[3], core.WithAbsorb())
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("expected ErrDegraded, got %v", err)
	}
	var deg *DegradedError
	if !errors.As(err, &deg) || deg.RetryAfter <= 0 {
		t.Fatalf("expected DegradedError with positive RetryAfter, got %#v", err)
	}
	if degraded, _ := m.Degraded(); !degraded {
		t.Fatal("Degraded() = false while shedding absorbs")
	}

	// Reads are unaffected.
	if _, err := m.Classify(ctx, &test[4]); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}

	// Heal the disk; before the probe window absorbs are still refused.
	disk.Heal()
	_, err = m.Classify(ctx, &test[5], core.WithAbsorb())
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("expected ErrDegraded before probe window, got %v", err)
	}

	// Past the probe window one absorb is admitted; its journal append
	// succeeds and clears degraded mode.
	advance(6 * time.Second)
	if _, err := m.Classify(ctx, &test[6], core.WithAbsorb()); err != nil {
		t.Fatalf("probe absorb after heal: %v", err)
	}
	if degraded, _ := m.Degraded(); degraded {
		t.Fatal("Degraded() = true after successful probe")
	}
	if _, err := m.Classify(ctx, &test[7], core.WithAbsorb()); err != nil {
		t.Fatalf("absorb after recovery: %v", err)
	}
}

// TestDegradedProbeFailureStaysDegraded verifies a failed probe keeps
// the manager degraded and re-arms the probe window rather than letting
// every absorb through to a still-sick disk.
func TestDegradedProbeFailureStaysDegraded(t *testing.T) {
	train, test := campus(t, 30, 11)
	disk := fault.NewDisk()

	var clockMu sync.Mutex
	clock := time.Now()
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		defer clockMu.Unlock()
		clock = clock.Add(d)
	}

	m, err := OpenCtx(context.Background(), fastConfig(), Options{
		StateDir:          t.TempDir(),
		Logf:              t.Logf,
		Now:               now,
		DegradedThreshold: 1,
		DegradedProbe:     5 * time.Second,
		WAL: wal.Options{
			OpenFile: func(name string, flag int, perm os.FileMode) (wal.File, error) {
				return disk.OpenFile(name, flag, perm)
			},
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	if err := m.Portfolio().AddBuildingCtx(context.Background(), "campus", train); err != nil {
		t.Fatalf("AddBuilding: %v", err)
	}
	ctx := context.Background()

	disk.FailWritesAfter(0, errors.New("disk died"))
	if _, err := m.Classify(ctx, &test[0], core.WithAbsorb()); err == nil {
		t.Fatal("expected journal failure")
	}

	// Probe while still sick: admitted, fails, stays degraded.
	advance(6 * time.Second)
	_, err = m.Classify(ctx, &test[1], core.WithAbsorb())
	if err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("probe should reach the disk and fail, got %v", err)
	}
	if degraded, _ := m.Degraded(); !degraded {
		t.Fatal("manager left degraded mode on a failed probe")
	}
	// And the window is re-armed: immediate retry sheds again.
	_, err = m.Classify(ctx, &test[2], core.WithAbsorb())
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("expected ErrDegraded right after failed probe, got %v", err)
	}
}
