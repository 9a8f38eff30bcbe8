package lifecycle

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
)

// slowConfig makes Fit expensive enough (seconds) that a refit is
// reliably in flight when Close races it.
func slowConfig() core.Config {
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 4000
	return cfg
}

// TestCloseAbortsInFlightRefit is the shutdown acceptance test: kill a
// refit mid-flight and assert a prompt, clean abort with the old model
// still serving. The initial fit measures how long training takes on this
// machine; Close during the refit must return in a fraction of that.
func TestCloseAbortsInFlightRefit(t *testing.T) {
	train, test := campus(t, 40, 21)
	m, err := OpenCtx(context.Background(), slowConfig(), Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fitStart := time.Now()
	if err := m.Portfolio().AddBuildingCtx(context.Background(), "campus", train); err != nil {
		t.Fatalf("AddBuilding: %v", err)
	}
	fitDuration := time.Since(fitStart)

	started, err := m.ForceRefit("campus")
	if err != nil {
		t.Fatalf("ForceRefit: %v", err)
	}
	if len(started) != 1 {
		t.Fatalf("started = %v, want [campus]", started)
	}
	// Catch the in-flight status while the refit runs.
	var sawInFlight bool
	for i := 0; i < 200 && !sawInFlight; i++ {
		for _, b := range m.Status().Buildings {
			if b.Refitting && !b.RefitStartedAt.IsZero() {
				sawInFlight = true
			}
		}
		time.Sleep(time.Millisecond)
	}

	closeStart := time.Now()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	closeDuration := time.Since(closeStart)
	if closeDuration > fitDuration/2+200*time.Millisecond {
		t.Errorf("Close took %v against a %v fit — the refit was not aborted promptly", closeDuration, fitDuration)
	}
	if !sawInFlight {
		t.Error("never observed Refitting with a RefitStartedAt timestamp")
	}

	// The old model must still be serving and no swap recorded.
	if _, err := m.Portfolio().Classify(context.Background(), &test[0], core.WithoutEmbedding()); err != nil {
		t.Fatalf("classify after aborted refit: %v", err)
	}
	for _, b := range m.Status().Buildings {
		if b.Refits != 0 {
			t.Errorf("aborted refit was counted as a success: %+v", b)
		}
		if !strings.Contains(b.LastRefitError, "context canceled") {
			t.Errorf("LastRefitError = %q, want a context cancellation", b.LastRefitError)
		}
		if b.Refitting || !b.RefitStartedAt.IsZero() {
			t.Errorf("refit still marked in flight after Close: %+v", b)
		}
	}
}

// TestStatusRefitTimings: after a completed refit the per-building status
// must expose when it finished and how long it ran; no refit may be
// marked in flight.
func TestStatusRefitTimings(t *testing.T) {
	train, test := campus(t, 30, 22)
	m := openManaged(t, "", Policy{}, train)
	defer m.Close()
	absorbN(t, m, test, 3)

	before := m.Status().Buildings[0]
	if !before.LastRefitAt.IsZero() || before.LastRefitDurationMS != 0 {
		t.Fatalf("refit timings set before any refit: %+v", before)
	}
	if _, err := m.ForceRefit("campus"); err != nil {
		t.Fatalf("ForceRefit: %v", err)
	}
	waitRefitDone(t, m)
	b := m.Status().Buildings[0]
	if b.Refits != 1 || b.LastRefitError != "" {
		t.Fatalf("refit did not succeed: %+v", b)
	}
	if b.LastRefitAt.IsZero() {
		t.Error("LastRefitAt not set after a refit")
	}
	if b.LastRefitDuration <= 0 || b.LastRefitDurationMS <= 0 {
		t.Errorf("refit duration not recorded: ns=%d ms=%v", b.LastRefitDuration, b.LastRefitDurationMS)
	}
	if got := time.Duration(b.LastRefitDurationMS * float64(time.Millisecond)); got > b.LastRefitDuration*2 {
		t.Errorf("duration fields disagree: %v vs %v", got, b.LastRefitDuration)
	}
	if b.Refitting || !b.RefitStartedAt.IsZero() {
		t.Errorf("idle building marked refitting: %+v", b)
	}
}
