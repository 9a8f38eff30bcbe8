package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Schema is the BENCH.json format version; bump on incompatible changes.
// Version 2 added the offline-training scenarios (fits).
const Schema = 2

// HistogramBucket is one log-spaced latency bucket: how many requests
// finished within UpperMS but above the previous bucket's bound.
type HistogramBucket struct {
	UpperMS float64 `json:"upper_ms"`
	Count   int     `json:"count"`
}

// LatencySummary holds the latency distribution of one scenario in
// milliseconds.
type LatencySummary struct {
	P50       float64           `json:"p50_ms"`
	P90       float64           `json:"p90_ms"`
	P95       float64           `json:"p95_ms"`
	P99       float64           `json:"p99_ms"`
	Max       float64           `json:"max_ms"`
	MeanMS    float64           `json:"mean_ms"`
	Histogram []HistogramBucket `json:"histogram,omitempty"`
}

// Report is the measured outcome of one scenario.
type Report struct {
	// Scenario names the target and load shape, e.g.
	// "core/classify/c1". Names are the join key for baseline
	// comparison, so they must stay stable across runs.
	Scenario      string         `json:"scenario"`
	Mode          string         `json:"mode"` // "closed" or "open"
	Concurrency   int            `json:"concurrency"`
	RatePerSec    float64        `json:"rate_per_sec,omitempty"`
	Requests      int            `json:"requests"`
	Errors        int            `json:"errors"`
	WallSeconds   float64        `json:"wall_seconds"`
	ThroughputRPS float64        `json:"throughput_rps"`
	Latency       LatencySummary `json:"latency"`
	AllocsPerOp   float64        `json:"allocs_per_op"`
	BytesPerOp    float64        `json:"bytes_per_op"`
}

// File is the BENCH.json document: environment fingerprint, workload
// configuration, and one report per scenario.
type File struct {
	Schema     int          `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workload   WorkloadSpec `json:"workload"`
	Scenarios  []Report     `json:"scenarios"`
	// Fits holds the offline-training scenarios (schema 2+): wall clock,
	// records/sec, and peak-heap estimates for Fit/refit at several
	// corpus sizes.
	Fits []FitReport `json:"fits,omitempty"`
}

// NewFile returns a File stamped with the current environment.
func NewFile(spec WorkloadSpec) *File {
	return &File{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   spec,
	}
}

// WriteFile writes the document as indented JSON.
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return nil
}

// ReadFile parses a BENCH.json document.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read %s: %w", path, err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("bench: %s has schema %d, this binary reads %d", path, f.Schema, Schema)
	}
	return &f, nil
}

// Regression is one gate violation found by Compare.
type Regression struct {
	Scenario string
	Metric   string
	Baseline float64
	Current  float64
	// Pct is the relative increase in percent.
	Pct float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s regressed %.1f%% (baseline %.3f -> current %.3f)",
		r.Scenario, r.Metric, r.Pct, r.Baseline, r.Current)
}

// Compare gates current against baseline: for every scenario present in
// both files, p95 latency may not grow by more than maxP95Pct percent and
// allocs/op may not grow by more than maxAllocsPct percent. A non-positive
// threshold disables that check. Scenarios present in only one file are
// skipped — adding or retiring scenarios must not fail the gate. Very fast
// baselines (<50µs p95) get an absolute 50µs grace so scheduler jitter on
// shared CI runners cannot fail the build on microsecond noise.
func Compare(baseline, current *File, maxP95Pct, maxAllocsPct float64) []Regression {
	base := make(map[string]Report, len(baseline.Scenarios))
	for _, r := range baseline.Scenarios {
		base[r.Scenario] = r
	}
	var out []Regression
	for _, cur := range current.Scenarios {
		b, ok := base[cur.Scenario]
		if !ok {
			continue
		}
		if maxP95Pct > 0 {
			limit := b.Latency.P95 * (1 + maxP95Pct/100)
			if floor := b.Latency.P95 + 0.05; limit < floor {
				limit = floor
			}
			if cur.Latency.P95 > limit && b.Latency.P95 > 0 {
				out = append(out, Regression{
					Scenario: cur.Scenario,
					Metric:   "p95_ms",
					Baseline: b.Latency.P95,
					Current:  cur.Latency.P95,
					Pct:      (cur.Latency.P95/b.Latency.P95 - 1) * 100,
				})
			}
		}
		if maxAllocsPct > 0 && b.AllocsPerOp > 0 {
			limit := b.AllocsPerOp * (1 + maxAllocsPct/100)
			if cur.AllocsPerOp > limit+1 { // +1 absolute grace for counter noise
				out = append(out, Regression{
					Scenario: cur.Scenario,
					Metric:   "allocs_per_op",
					Baseline: b.AllocsPerOp,
					Current:  cur.AllocsPerOp,
					Pct:      (cur.AllocsPerOp/b.AllocsPerOp - 1) * 100,
				})
			}
		}
	}
	return out
}

// CompareFits gates the offline-training scenarios: for every fit
// scenario present in both files, wall-clock may not grow by more than
// maxWallPct percent (with a 250ms absolute grace, since short fits on
// shared CI runners jitter) and the peak-heap estimate may not grow by
// more than maxPeakPct percent (with a 4 MiB absolute grace for GC-timing
// noise). A non-positive threshold disables that check; scenarios present
// in only one file are skipped, like Compare.
func CompareFits(baseline, current *File, maxWallPct, maxPeakPct float64) []Regression {
	base := make(map[string]FitReport, len(baseline.Fits))
	for _, r := range baseline.Fits {
		base[r.Scenario] = r
	}
	var out []Regression
	for _, cur := range current.Fits {
		b, ok := base[cur.Scenario]
		if !ok {
			continue
		}
		if maxWallPct > 0 && b.WallSeconds > 0 {
			limit := b.WallSeconds * (1 + maxWallPct/100)
			if floor := b.WallSeconds + 0.25; limit < floor {
				limit = floor
			}
			if cur.WallSeconds > limit {
				out = append(out, Regression{
					Scenario: cur.Scenario,
					Metric:   "wall_seconds",
					Baseline: b.WallSeconds,
					Current:  cur.WallSeconds,
					Pct:      (cur.WallSeconds/b.WallSeconds - 1) * 100,
				})
			}
		}
		if maxPeakPct > 0 {
			// A zero baseline (the sampler never saw the heap clear the
			// GC base: tiny, fast fits) still gates through the absolute
			// grace — exempting it would let a real memory blowup in that
			// scenario pass CI forever.
			limit := float64(b.PeakAllocBytes) * (1 + maxPeakPct/100)
			if floor := float64(b.PeakAllocBytes) + 4*(1<<20); limit < floor {
				limit = floor
			}
			if float64(cur.PeakAllocBytes) > limit {
				pct := 0.0
				if b.PeakAllocBytes > 0 {
					pct = (float64(cur.PeakAllocBytes)/float64(b.PeakAllocBytes) - 1) * 100
				}
				out = append(out, Regression{
					Scenario: cur.Scenario,
					Metric:   "peak_alloc_bytes",
					Baseline: float64(b.PeakAllocBytes),
					Current:  float64(cur.PeakAllocBytes),
					Pct:      pct,
				})
			}
		}
	}
	return out
}

// CompareFitThroughput gates fit scenarios on records/s: a drop of more
// than maxDropPct percent below the baseline fails. Every fit trains on
// one goroutine, so this is the floor under single-goroutine training
// speed, and it catches a slower kernel even when wall-clock growth
// alone would squeak under the CompareFits grace. A non-positive
// threshold disables the check;
// scenarios present in only one file are skipped, like Compare. Reported
// Pct is the relative drop in percent.
func CompareFitThroughput(baseline, current *File, maxDropPct float64) []Regression {
	if maxDropPct <= 0 {
		return nil
	}
	base := make(map[string]FitReport, len(baseline.Fits))
	for _, r := range baseline.Fits {
		base[r.Scenario] = r
	}
	var out []Regression
	for _, cur := range current.Fits {
		b, ok := base[cur.Scenario]
		if !ok || b.RecordsPerSec <= 0 {
			continue
		}
		floor := b.RecordsPerSec * (1 - maxDropPct/100)
		if cur.RecordsPerSec < floor {
			out = append(out, Regression{
				Scenario: cur.Scenario,
				Metric:   "records_per_sec",
				Baseline: b.RecordsPerSec,
				Current:  cur.RecordsPerSec,
				Pct:      (1 - cur.RecordsPerSec/b.RecordsPerSec) * 100,
			})
		}
	}
	return out
}
