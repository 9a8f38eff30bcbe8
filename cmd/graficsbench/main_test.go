package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
)

// tinyArgs keeps test runs to a couple of seconds: one small building,
// few requests, core mode only unless the test overrides.
func tinyArgs(out string, extra ...string) []string {
	args := []string{
		"-mode", "core",
		"-buildings", "1",
		"-records-per-floor", "15",
		"-queries", "30",
		"-requests", "30",
		"-warmup", "5",
		"-concurrency", "1",
		"-out", out,
	}
	return append(args, extra...)
}

func TestRunEmitsBenchJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var buf bytes.Buffer
	if err := run(tinyArgs(out), &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	f, err := bench.ReadFile(out)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(f.Scenarios) != 1 {
		t.Fatalf("scenarios = %d, want 1", len(f.Scenarios))
	}
	rep := f.Scenarios[0]
	if rep.Scenario != "core/classify/c1" {
		t.Errorf("scenario name %q, want core/classify/c1", rep.Scenario)
	}
	if rep.Requests != 30 || rep.Errors != 0 {
		t.Errorf("requests/errors = %d/%d, want 30/0", rep.Requests, rep.Errors)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P95 < rep.Latency.P50 {
		t.Errorf("latency summary implausible: %+v", rep.Latency)
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("throughput %v, want > 0", rep.ThroughputRPS)
	}
}

func TestRunHTTPMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var buf bytes.Buffer
	args := tinyArgs(out)
	for i, a := range args {
		if a == "core" {
			args[i] = "http"
		}
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	f, err := bench.ReadFile(out)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(f.Scenarios) != 1 || f.Scenarios[0].Scenario != "http/v2-classify/c1" {
		t.Fatalf("unexpected scenarios: %+v", f.Scenarios)
	}
	if f.Scenarios[0].Errors != 0 {
		t.Errorf("HTTP scenario had %d errors", f.Scenarios[0].Errors)
	}
}

func TestGatePassesAgainstOwnRun(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "baseline.json")
	var buf bytes.Buffer
	if err := run(tinyArgs(first), &buf); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	// A second identical run must pass a generous gate against the first.
	// The thresholds here are deliberately huge: this exercises the gate
	// plumbing, not measurement stability — at 30 requests under -race
	// the allocs/op estimate alone wobbles by >2× from background
	// allocations, so tight margins would test scheduler noise.
	second := filepath.Join(dir, "BENCH.json")
	buf.Reset()
	if err := run(tinyArgs(second, "-baseline", first, "-max-p95-regress", "400", "-max-allocs-regress", "1000"), &buf); err != nil {
		t.Fatalf("gated run: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "gate passed") {
		t.Errorf("gate verdict missing from output:\n%s", buf.String())
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH.json")
	var buf bytes.Buffer
	if err := run(tinyArgs(out), &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Rewrite the run's own output into an impossible baseline: if the
	// "old" p95 was 100x faster, the current run must trip the gate.
	f, err := bench.ReadFile(out)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for i := range f.Scenarios {
		f.Scenarios[i].Latency.P95 /= 100
		f.Scenarios[i].AllocsPerOp = 0.001
	}
	baseline := filepath.Join(dir, "baseline.json")
	if err := f.WriteFile(baseline); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	buf.Reset()
	err = run(tinyArgs(filepath.Join(dir, "BENCH2.json"), "-baseline", baseline, "-max-p95-regress", "20"), &buf)
	if err == nil {
		t.Fatalf("run with regressing baseline succeeded; output:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Errorf("error %q does not mention regression", err)
	}
	if !strings.Contains(buf.String(), "REGRESSION:") {
		t.Errorf("regression lines missing from output:\n%s", buf.String())
	}
}

func TestFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mode", "bogus"}, &buf); err == nil {
		t.Error("bogus mode accepted")
	}
	if err := run([]string{"-concurrency", "0"}, &buf); err == nil {
		t.Error("zero concurrency accepted")
	}
	if err := run([]string{"-requests", "-1"}, &buf); err == nil {
		t.Error("negative requests accepted")
	}
}

// TestRunFailsOnRequestErrors: a run whose requests error must exit
// non-zero even without a baseline — failed requests finish in
// microseconds and would otherwise sail under every latency gate. A
// healthy workload cannot produce errors through the public flags, so
// the scenario runner is driven directly with a failing target.
func TestRunFailsOnRequestErrors(t *testing.T) {
	cfg, err := parseFlags([]string{"-requests", "10", "-warmup", "0", "-concurrency", "1"})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	boom := errors.New("boom")
	target := func(ctx context.Context, rec *dataset.Record) error { return boom }
	reports, err := runShapes(context.Background(), "test", "failing", target,
		[]dataset.Record{{ID: "q"}}, cfg)
	if err != nil {
		t.Fatalf("runShapes: %v", err)
	}
	if len(reports) != 1 || reports[0].Errors != 10 {
		t.Fatalf("reports = %+v, want one scenario with 10 errors", reports)
	}
}

// TestRunFitMode drives the offline-training scenarios at tiny sizes and
// checks the emitted fits: one system fit per size, one refit, one
// clustering-only scenario.
func TestRunFitMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var buf bytes.Buffer
	args := []string{
		"-mode", "fit",
		"-fit-sizes", "45,90",
		"-fit-cluster-sizes", "120",
		"-out", out,
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	f, err := bench.ReadFile(out)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(f.Scenarios) != 0 {
		t.Errorf("fit mode emitted %d serving scenarios, want 0", len(f.Scenarios))
	}
	if len(f.Fits) != 4 { // 2 system + 1 refit + 1 cluster
		t.Fatalf("fits = %d, want 4: %+v", len(f.Fits), f.Fits)
	}
	var sawRefit, sawCluster bool
	for _, r := range f.Fits {
		if r.WallSeconds <= 0 || r.RecordsPerSec <= 0 || r.Records <= 0 {
			t.Errorf("implausible fit report: %+v", r)
		}
		if strings.HasPrefix(r.Scenario, "fit/refit/") {
			sawRefit = true
		}
		if r.Scenario == "fit/cluster/n120" {
			sawCluster = true
		}
	}
	if !sawRefit || !sawCluster {
		t.Errorf("missing refit or cluster scenario: %+v", f.Fits)
	}
}

// TestMedianFit: each measurement of a repeated fit scenario is its own
// median, and records/s is the median-wall run's.
func TestMedianFit(t *testing.T) {
	var runs []bench.FitReport
	for i, wall := range []float64{3, 1, 5, 2, 4} {
		runs = append(runs, bench.FitReport{
			Scenario: "fit/x", Records: 60, WallSeconds: wall, RecordsPerSec: 60 / wall,
			PeakAllocBytes: uint64(10 * (5 - i)), TotalAllocBytes: uint64(100 + i),
		})
	}
	got := medianFit(runs)
	want := bench.FitReport{Scenario: "fit/x", Records: 60, WallSeconds: 3, RecordsPerSec: 20, PeakAllocBytes: 30, TotalAllocBytes: 102}
	if got != want {
		t.Errorf("medianFit = %+v, want %+v", got, want)
	}
	if runs[0].WallSeconds != 3 || runs[1].WallSeconds != 1 {
		t.Error("medianFit reordered its argument")
	}
}

// TestFitGateAgainstOwnBaseline runs the fit scenarios, uses the emitted
// report as its own baseline (which must pass), and then asserts a
// stale-schema baseline is rejected. The regression arithmetic itself is
// unit-tested in internal/bench.
func TestFitGateAgainstOwnBaseline(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.json")
	args := []string{
		"-mode", "fit",
		"-fit-sizes", "",
		"-fit-cluster-sizes", "120",
		"-out", basePath,
	}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("baseline run: %v\noutput:\n%s", err, buf.String())
	}
	out := filepath.Join(dir, "BENCH.json")
	gated := append(args[:len(args)-1:len(args)-1], out, "-baseline", basePath)
	buf.Reset()
	if err := run(gated, &buf); err != nil {
		t.Fatalf("gate vs own baseline failed: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "gate passed") {
		t.Errorf("gate verdict missing from output:\n%s", buf.String())
	}
	if err := os.WriteFile(basePath, []byte(`{"schema":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(gated, &buf); err == nil {
		t.Error("schema-1 baseline accepted; want schema error")
	}
}
