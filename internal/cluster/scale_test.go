package cluster

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// peakHeapDuring runs fn while sampling the live heap every millisecond
// and returns (wall time, estimated peak heap growth over the pre-fn
// baseline). A forced GC before the baseline keeps prior test garbage out
// of the estimate.
func peakHeapDuring(fn func()) (time.Duration, uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				if h := s.HeapAlloc; h > peak.Load() {
					peak.Store(h)
				}
			}
		}
	}()
	start := time.Now()
	fn()
	wall := time.Since(start)
	close(stop)
	<-done
	p := peak.Load()
	if p < base {
		p = base
	}
	return wall, p - base
}

// TestScaleComparison measures Train against TrainReference at n≈5000
// (the scale the offline-fit acceptance targets: ≥2× wall-clock, ≥4× peak
// memory). It is an expensive measurement, not a correctness gate, so it
// only runs with GRAFICS_SLOW=1:
//
//	GRAFICS_SLOW=1 go test ./internal/cluster -run TestScaleComparison -v -timeout 30m
func TestScaleComparison(t *testing.T) {
	if os.Getenv("GRAFICS_SLOW") == "" {
		t.Skip("set GRAFICS_SLOW=1 to run the n≈5k fit scale comparison")
	}
	const n, dim, labels = 5000, 8, 30
	rng := rand.New(rand.NewSource(42))
	items := randomItems(n, dim, labels, 3, rng)

	var got *Model
	newWall, newPeak := peakHeapDuring(func() {
		m, err := TrainCtx(context.Background(), items)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		got = m
	})
	t.Logf("new Train:       n=%d wall=%v peak-heap=%.1f MiB", n, newWall.Round(time.Millisecond), float64(newPeak)/(1<<20))

	var want *Model
	refWall, refPeak := peakHeapDuring(func() {
		m, err := TrainReference(items)
		if err != nil {
			t.Fatalf("TrainReference: %v", err)
		}
		want = m
	})
	t.Logf("reference Train: n=%d wall=%v peak-heap=%.1f MiB", n, refWall.Round(time.Millisecond), float64(refPeak)/(1<<20))
	t.Logf("speedup %.2fx, peak-memory reduction %.2fx",
		refWall.Seconds()/newWall.Seconds(), float64(refPeak)/float64(newPeak))

	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("merge count %d != %d", len(got.Trace), len(want.Trace))
	}
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("cluster count %d != %d", len(got.Clusters), len(want.Clusters))
	}
	if refWall.Seconds() < 2*newWall.Seconds() {
		t.Errorf("wall-clock speedup %.2fx below the 2x target", refWall.Seconds()/newWall.Seconds())
	}
	if float64(refPeak) < 4*float64(newPeak) {
		t.Errorf("peak-memory reduction %.2fx below the 4x target", float64(refPeak)/float64(newPeak))
	}
}
