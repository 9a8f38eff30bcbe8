// Command graficsbench measures the GRAFICS serving hot path end to end
// and emits a machine-readable BENCH.json so the performance trajectory is
// tracked PR over PR. It generates a deterministic synthetic workload,
// trains a fleet, then drives three layers under load:
//
//	core       — core.System.Classify, the in-process inference hot path
//	portfolio  — portfolio.ClassifyRouted, attribution + classification
//	http       — POST /v2/classify against a live net/http server
//
// Each layer runs closed-loop at every -concurrency level (and open-loop
// at -rate, when set), reporting p50/p95/p99 latency, throughput,
// and allocations per request. The fit mode measures the offline
// training pipeline instead: one building at a time, each fit on one
// goroutine, as production fits every building (see docs/determinism.md),
// every scenario run five times and reported as its median.
// With -baseline the run is gated against a committed BENCH.json:
// >-max-p95-regress percent p95 growth, >-max-allocs-regress percent
// allocs/op growth, or a fit scenario regressing on wall-clock, peak
// heap, or records/s throughput (-max-fit-*-regress) exits non-zero,
// which is how CI fails a regressing PR.
//
//	graficsbench -out BENCH.json
//	graficsbench -mode http -concurrency 8 -rate 500 -requests 2000
//	graficsbench -mode fit
//	graficsbench -baseline ci/bench-baseline.json -max-p95-regress 20
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/portfolio"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graficsbench:", err)
		os.Exit(1)
	}
}

type config struct {
	modes          []string
	spec           bench.WorkloadSpec
	requests       int
	warmup         int
	levels         []int
	rate           float64
	fitSizes       []int
	fitClusterSize []int
	out            string
	baseline       string
	maxP95Pct      float64
	maxAllocPct    float64
	maxFitWallPct  float64
	maxFitPeakPct  float64
	maxFitTputPct  float64
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("graficsbench", flag.ContinueOnError)
	mode := fs.String("mode", "all", "comma list of layers to drive: core, portfolio, http, fit, or all")
	buildings := fs.Int("buildings", 0, "buildings in the fleet (0 = default)")
	recordsPerFloor := fs.Int("records-per-floor", 0, "records per floor per building (0 = default)")
	labelsPerFloor := fs.Int("labels-per-floor", 0, "labeled records per floor (0 = default)")
	queries := fs.Int("queries", 0, "held-out query pool size (0 = default)")
	seed := fs.Int64("seed", 1, "workload seed")
	requests := fs.Int("requests", 600, "measured requests per scenario")
	warmup := fs.Int("warmup", 60, "unmeasured warmup requests per scenario")
	concurrency := fs.String("concurrency", "1,8", "comma list of closed-loop concurrency levels")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in requests/sec (0 = closed loop only)")
	fitSizes := fs.String("fit-sizes", "600,1200,2400", "comma list of corpus sizes for full-pipeline fit scenarios (fit mode)")
	fitCluster := fs.String("fit-cluster-sizes", "5000", "comma list of item counts for clustering-only fit scenarios (fit mode; empty disables)")
	out := fs.String("out", "BENCH.json", "output path for the machine-readable report")
	baseline := fs.String("baseline", "", "BENCH.json to gate against (empty = no gate)")
	maxP95 := fs.Float64("max-p95-regress", 20, "fail when p95 grows more than this percent vs the baseline (<=0 disables)")
	maxAllocs := fs.Float64("max-allocs-regress", 25, "fail when allocs/op grows more than this percent vs the baseline (<=0 disables)")
	maxFitWall := fs.Float64("max-fit-wall-regress", 50, "fail when a fit scenario's wall-clock grows more than this percent vs the baseline (<=0 disables)")
	maxFitPeak := fs.Float64("max-fit-peak-regress", 30, "fail when a fit scenario's peak-heap estimate grows more than this percent vs the baseline (<=0 disables)")
	maxFitTput := fs.Float64("max-fit-tput-regress", 40, "fail when a fit scenario's records/s drops more than this percent vs the baseline (<=0 disables)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := &config{
		spec: bench.WorkloadSpec{
			Buildings:       *buildings,
			RecordsPerFloor: *recordsPerFloor,
			LabelsPerFloor:  *labelsPerFloor,
			Queries:         *queries,
			Seed:            *seed,
		},
		requests:      *requests,
		warmup:        *warmup,
		rate:          *rate,
		out:           *out,
		baseline:      *baseline,
		maxP95Pct:     *maxP95,
		maxAllocPct:   *maxAllocs,
		maxFitWallPct: *maxFitWall,
		maxFitPeakPct: *maxFitPeak,
		maxFitTputPct: *maxFitTput,
	}
	want := strings.Split(*mode, ",")
	if *mode == "all" {
		want = []string{"core", "portfolio", "http", "fit"}
	}
	for _, m := range want {
		m = strings.TrimSpace(m)
		switch m {
		case "core", "portfolio", "http", "fit":
			cfg.modes = append(cfg.modes, m)
		default:
			return nil, fmt.Errorf("unknown mode %q (want core, portfolio, http, fit, or all)", m)
		}
	}
	for _, s := range strings.Split(*concurrency, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad concurrency level %q", s)
		}
		cfg.levels = append(cfg.levels, n)
	}
	var err error
	if cfg.fitSizes, err = parseSizes(*fitSizes); err != nil {
		return nil, fmt.Errorf("fit-sizes: %w", err)
	}
	if cfg.fitClusterSize, err = parseSizes(*fitCluster); err != nil {
		return nil, fmt.Errorf("fit-cluster-sizes: %w", err)
	}
	if cfg.requests <= 0 {
		return nil, fmt.Errorf("requests must be positive")
	}
	return cfg, nil
}

// parseSizes parses a comma list of positive integers; an empty string is
// an empty list.
func parseSizes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(args []string, w io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	ctx := context.Background()

	workload, err := bench.NewWorkload(cfg.spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload: %d buildings, %d queries (seed %d)\n",
		len(workload.Buildings), len(workload.Queries), workload.Spec.Seed)

	serving := false
	for _, m := range cfg.modes {
		if m != "fit" {
			serving = true
		}
	}
	fleet := portfolio.New(core.Config{})
	if serving {
		trainStart := time.Now()
		// Per-building fits run in parallel over a bounded pool — the
		// bring-up path the fit scenarios below measure one building of.
		corpora := make([]portfolio.BuildingCorpus, len(workload.Buildings))
		for i, b := range workload.Buildings {
			corpora[i] = portfolio.BuildingCorpus{Name: b.Name, Train: b.Train}
		}
		if err := fleet.AddBuildings(ctx, corpora, 0); err != nil {
			return fmt.Errorf("train fleet: %w", err)
		}
		fmt.Fprintf(w, "trained fleet in %v\n", time.Since(trainStart).Round(time.Millisecond))
	}

	file := bench.NewFile(workload.Spec)
	failed := 0
	for _, mode := range cfg.modes {
		if mode == "fit" {
			fits, err := runFitScenarios(ctx, cfg, w)
			if err != nil {
				return fmt.Errorf("mode fit: %w", err)
			}
			file.Fits = append(file.Fits, fits...)
			continue
		}
		reports, err := runMode(ctx, mode, fleet, workload, cfg)
		if err != nil {
			return fmt.Errorf("mode %s: %w", mode, err)
		}
		for _, r := range reports {
			fmt.Fprintf(w, "%-28s %7.0f req/s  p50 %7.3fms  p95 %7.3fms  p99 %7.3fms  %6.1f allocs/op  errors %d\n",
				r.Scenario, r.ThroughputRPS, r.Latency.P50, r.Latency.P95, r.Latency.P99, r.AllocsPerOp, r.Errors)
			failed += r.Errors
			file.Scenarios = append(file.Scenarios, r)
		}
	}

	if cfg.out != "" {
		if err := file.WriteFile(cfg.out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d serving scenarios, %d fit scenarios)\n", cfg.out, len(file.Scenarios), len(file.Fits))
	}

	// The synthetic workload is deterministic and every scan is known to
	// its fleet, so any request error means the benchmark measured a
	// broken system. Failing here keeps the regression gate honest: a run
	// whose requests error in microseconds would otherwise sail under
	// every latency baseline. The report is written first so the artifact
	// still shows what happened.
	if failed > 0 {
		return fmt.Errorf("%d request(s) failed; latency numbers are not trustworthy", failed)
	}

	if cfg.baseline != "" {
		base, err := bench.ReadFile(cfg.baseline)
		if err != nil {
			return err
		}
		// Latency baselines are hardware-sensitive; flag environment drift
		// so a gate verdict on different iron is interpretable.
		if base.GoVersion != file.GoVersion || base.GOOS != file.GOOS ||
			base.GOARCH != file.GOARCH || base.GOMAXPROCS != file.GOMAXPROCS {
			fmt.Fprintf(w, "note: baseline environment (%s %s/%s gomaxprocs %d) differs from this run (%s %s/%s gomaxprocs %d); latency comparisons are hardware-sensitive — refresh the baseline if the gate misfires\n",
				base.GoVersion, base.GOOS, base.GOARCH, base.GOMAXPROCS,
				file.GoVersion, file.GOOS, file.GOARCH, file.GOMAXPROCS)
		}
		regressions := bench.Compare(base, file, cfg.maxP95Pct, cfg.maxAllocPct)
		regressions = append(regressions, bench.CompareFits(base, file, cfg.maxFitWallPct, cfg.maxFitPeakPct)...)
		regressions = append(regressions, bench.CompareFitThroughput(base, file, cfg.maxFitTputPct)...)
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(w, "REGRESSION:", r)
			}
			return fmt.Errorf("%d regression(s) vs %s", len(regressions), cfg.baseline)
		}
		fmt.Fprintf(w, "gate passed vs %s (p95 +%.0f%%, allocs +%.0f%%, fit wall +%.0f%%, fit peak +%.0f%%, fit tput -%.0f%%)\n",
			cfg.baseline, cfg.maxP95Pct, cfg.maxAllocPct, cfg.maxFitWallPct, cfg.maxFitPeakPct, cfg.maxFitTputPct)
	}
	return nil
}

// fitRuns is how many times each fit scenario runs. Its report is the
// median of each measurement: one run of a fit on a shared host spread as
// widely as the gate's bounds (fit/system/n480 gave 1386, 1235 and 811
// records/s in three back-to-back runs of the same code).
const fitRuns = 5

// runFitMedian runs one fit scenario fitRuns times with bench.RunFit and
// reports the median wall clock (and so the median records/s), the
// median peak heap and the median total allocation.
func runFitMedian(ctx context.Context, scenario string, records int, fn func(ctx context.Context) error) (bench.FitReport, error) {
	runs := make([]bench.FitReport, fitRuns)
	for i := range runs {
		rep, err := bench.RunFit(ctx, scenario, records, fn)
		if err != nil {
			return bench.FitReport{}, err
		}
		runs[i] = rep
	}
	return medianFit(runs), nil
}

// medianFit reports, for an odd number of runs of one scenario, the
// median of each measurement. records/s falls as wall clock rises, so
// the median run's records/s is the median records/s.
func medianFit(runs []bench.FitReport) bench.FitReport {
	median := func(key func(bench.FitReport) float64) bench.FitReport {
		sorted := slices.Clone(runs)
		slices.SortFunc(sorted, func(a, b bench.FitReport) int { return cmp.Compare(key(a), key(b)) })
		return sorted[len(sorted)/2]
	}
	out := median(func(r bench.FitReport) float64 { return r.WallSeconds })
	out.PeakAllocBytes = median(func(r bench.FitReport) float64 { return float64(r.PeakAllocBytes) }).PeakAllocBytes
	out.TotalAllocBytes = median(func(r bench.FitReport) float64 { return float64(r.TotalAllocBytes) }).TotalAllocBytes
	return out
}

// runFitScenarios measures the offline-training path: full-pipeline fits
// at each -fit-sizes corpus, one lifecycle-style refit (fit + absorbed
// crowd scans + retrain on the grown corpus) at the middle size, and
// clustering-only scenarios at each -fit-cluster-sizes count, each the
// median of fitRuns runs.
func runFitScenarios(ctx context.Context, cfg *config, w io.Writer) ([]bench.FitReport, error) {
	var out []bench.FitReport
	emit := func(rep bench.FitReport) {
		fmt.Fprintf(w, "%-28s %8.3fs wall  %8.0f records/s  peak %7.1f MiB  (%d records, median of %d)\n",
			rep.Scenario, rep.WallSeconds, rep.RecordsPerSec, float64(rep.PeakAllocBytes)/(1<<20), rep.Records, fitRuns)
		out = append(out, rep)
	}
	for i, size := range cfg.fitSizes {
		wl, err := bench.NewFitWorkload(size, cfg.spec.Seed+int64(i)*31)
		if err != nil {
			return nil, err
		}
		n := len(wl.Train)
		rep, err := runFitMedian(ctx, fmt.Sprintf("fit/system/n%d", n), n, func(ctx context.Context) error {
			sys := core.New(core.Config{})
			if err := sys.AddTraining(wl.Train); err != nil {
				return err
			}
			return sys.FitCtx(ctx)
		})
		if err != nil {
			return nil, err
		}
		emit(rep)
	}
	if len(cfg.fitSizes) > 0 {
		// Refit: grow a fitted building with its held-out crowd scans
		// (untimed setup), then measure the retrain-on-grown-corpus cycle
		// a lifecycle refit performs (minus WAL/snapshot I/O).
		mid := cfg.fitSizes[len(cfg.fitSizes)/2]
		wl, err := bench.NewFitWorkload(mid, cfg.spec.Seed+101)
		if err != nil {
			return nil, err
		}
		sys := core.New(core.Config{})
		if err := sys.AddTraining(wl.Train); err != nil {
			return nil, err
		}
		if err := sys.FitCtx(ctx); err != nil {
			return nil, err
		}
		for i := range wl.Extra {
			if _, err := sys.Classify(ctx, &wl.Extra[i], core.WithAbsorb(), core.WithoutEmbedding()); err != nil {
				return nil, fmt.Errorf("absorb %s: %w", wl.Extra[i].ID, err)
			}
		}
		corpus := sys.CorpusRecords()
		rep, err := runFitMedian(ctx, fmt.Sprintf("fit/refit/n%d", len(corpus)), len(corpus), func(ctx context.Context) error {
			next := core.New(sys.Config())
			if err := next.AddTraining(corpus); err != nil {
				return err
			}
			return next.FitCtx(ctx)
		})
		if err != nil {
			return nil, err
		}
		emit(rep)
	}
	for i, n := range cfg.fitClusterSize {
		items := bench.ClusterItems(n, 8, 24, cfg.spec.Seed+int64(i)*13+5)
		rep, err := runFitMedian(ctx, fmt.Sprintf("fit/cluster/n%d", n), n, func(ctx context.Context) error {
			_, err := cluster.TrainCtx(ctx, items)
			return err
		})
		if err != nil {
			return nil, err
		}
		emit(rep)
	}
	return out, nil
}

// runMode builds the target for one layer and runs every load shape
// against it.
func runMode(ctx context.Context, mode string, fleet *portfolio.Portfolio, workload *bench.Workload, cfg *config) ([]bench.Report, error) {
	var target bench.Target
	var cleanup func()
	switch mode {
	case "core":
		sys, err := fleet.System(workload.Buildings[0].Name)
		if err != nil {
			return nil, err
		}
		// Core measures a single building, so restrict the pool to scans
		// from that building (the mixed pool would be out-of-building).
		target = func(ctx context.Context, rec *dataset.Record) error {
			_, err := sys.Classify(ctx, rec, core.WithoutEmbedding())
			return err
		}
		home := workload.Buildings[0].Name + "/"
		var local []dataset.Record
		for _, q := range workload.Queries {
			if strings.HasPrefix(q.ID, home) {
				local = append(local, q)
			}
		}
		return runShapes(ctx, mode, "classify", target, local, cfg)
	case "portfolio":
		target = func(ctx context.Context, rec *dataset.Record) error {
			_, err := fleet.ClassifyRouted(ctx, rec, core.WithoutEmbedding())
			return err
		}
		return runShapes(ctx, mode, "classify-routed", target, workload.Queries, cfg)
	case "http":
		var err error
		target, cleanup, err = httpTarget(fleet, workload.Queries)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		return runShapes(ctx, mode, "v2-classify", target, workload.Queries, cfg)
	}
	return nil, fmt.Errorf("unknown mode %q", mode)
}

// runShapes runs the closed-loop concurrency ladder (and the open-loop
// shape when -rate is set) against one target.
func runShapes(ctx context.Context, mode, op string, target bench.Target, queries []dataset.Record, cfg *config) ([]bench.Report, error) {
	var out []bench.Report
	for _, c := range cfg.levels {
		name := fmt.Sprintf("%s/%s/c%d", mode, op, c)
		rep, err := bench.Run(ctx, name, target, queries, bench.DriverConfig{
			Requests:    cfg.requests,
			Warmup:      cfg.warmup,
			Concurrency: c,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	if cfg.rate > 0 {
		c := cfg.levels[len(cfg.levels)-1]
		name := fmt.Sprintf("%s/%s/open%d", mode, op, int(cfg.rate))
		rep, err := bench.Run(ctx, name, target, queries, bench.DriverConfig{
			Requests:    cfg.requests,
			Warmup:      cfg.warmup,
			Concurrency: c,
			RatePerSec:  cfg.rate,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// httpTarget starts a real net/http server over the fleet on a loopback
// port and returns a target that POSTs each scan to /v2/classify — the
// full serving path including JSON, routing, and the TCP stack.
func httpTarget(fleet *portfolio.Portfolio, queries []dataset.Record) (bench.Target, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: server.NewHandler(fleet, fleet, server.Options{})}
	go func() { _ = srv.Serve(ln) }()
	url := fmt.Sprintf("http://%s/v2/classify", ln.Addr())

	// Scan bodies are marshalled once up front; the driver should measure
	// the server, not client-side JSON encoding.
	bodies := make(map[string][]byte, len(queries))
	for i := range queries {
		data, err := json.Marshal(&queries[i])
		if err != nil {
			_ = srv.Close()
			return nil, nil, fmt.Errorf("marshal scan %s: %w", queries[i].ID, err)
		}
		bodies[queries[i].ID] = data
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
	target := func(ctx context.Context, rec *dataset.Record) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(bodies[rec.ID]))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	cleanup := func() {
		client.CloseIdleConnections()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}
	return target, cleanup, nil
}
