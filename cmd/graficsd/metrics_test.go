package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sampleLine matches one Prometheus text-exposition sample:
// name, optional {labels}, one float value.
// Label values may themselves contain braces (mux patterns like
// "/v2/macs/{mac}"), so the label block is matched greedily to the last
// closing brace before the value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [-+0-9.eEinfNa]+$`)

// TestMetricsEndpoint drives real traffic through an assembled daemon
// and scrapes GET /v2/metrics: the exposition must parse line by line
// and cover every instrumented subsystem (server, core, wal, lifecycle,
// fleet — the fleet families register at package init even on a single
// node, so the catalog is stable across roles).
func TestMetricsEndpoint(t *testing.T) {
	corpusPath, corpus := writeCorpus(t)
	a, srv := boot(t,
		"-corpus", corpusPath,
		"-state-dir", filepath.Join(t.TempDir(), "state"),
		"-samples-per-edge", "40",
	)
	defer a.shutdown(t.Logf)

	rec := corpus.Buildings[0].Records[0]
	for i, path := range []string{"/v2/classify", "/v2/absorb"} {
		resp := postJSON(t, srv.URL+path, map[string]any{
			"id": fmt.Sprintf("m-%d", i), "readings": rec.Readings,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/v2/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("scrape content type = %q, want text exposition 0.0.4", ct)
	}

	samples := make(map[string]bool) // bare metric name -> seen with a value
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		samples[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// One representative series per subsystem must have real samples
	// after the traffic above.
	for _, name := range []string{
		"grafics_http_requests_total",
		"grafics_http_request_seconds_count",
		"grafics_http_in_flight_requests",
		"grafics_core_classify_total",
		"grafics_core_classify_stage_seconds_count",
		"grafics_wal_appends_total",
		"grafics_wal_fsync_seconds_count",
		"grafics_lifecycle_journaled_writes_total",
		"grafics_lifecycle_absorbed_since_fit",
		// Fleet counters are zero on a single node but still exposed.
		"grafics_fleet_wal_shipped_bytes_total",
		"grafics_fleet_repl_lag_bytes",
		"grafics_fleet_routed_reads_total",
		// Robustness instrumentation: circuit breakers, write-path
		// admission control, WAL poisoning, and degraded read-only mode
		// all expose plain series even while everything is healthy.
		"grafics_fleet_breaker_opens_total",
		"grafics_server_absorb_inflight",
		"grafics_server_absorb_shed_total",
		"grafics_wal_poisoned_segments_total",
		"grafics_lifecycle_degraded",
		"grafics_lifecycle_degraded_rejects_total",
	} {
		if !samples[name] {
			t.Errorf("scrape is missing series %s", name)
		}
	}
}

// TestVersionEndpointAndFlag covers both faces of the build surface:
// GET /v2/version serves JSON, and `graficsd -version` prints and exits
// cleanly without booting anything.
func TestVersionEndpointAndFlag(t *testing.T) {
	corpusPath, _ := writeCorpus(t)
	a, srv := boot(t, "-corpus", corpusPath, "-samples-per-edge", "40")
	defer a.shutdown(t.Logf)

	resp, err := http.Get(srv.URL + "/v2/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/version: status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"go_version"`) {
		t.Errorf("version body lacks go_version: %s", body)
	}

	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("run(-version): %v", err)
	}
}

// TestPprofFlag: the profiling surface exists only when asked for.
func TestPprofFlag(t *testing.T) {
	corpusPath, _ := writeCorpus(t)

	aOff, srvOff := boot(t, "-corpus", corpusPath, "-samples-per-edge", "40")
	defer aOff.shutdown(t.Logf)
	resp, err := http.Get(srvOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without -pprof")
	}

	aOn, srvOn := boot(t, "-corpus", corpusPath, "-samples-per-edge", "40", "-pprof")
	defer aOn.shutdown(t.Logf)
	resp, err = http.Get(srvOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with -pprof: status %d", resp.StatusCode)
	}
	// The app's own routes still serve through the pprof-wrapping mux.
	if code := func() int {
		r, err := http.Get(srvOn.URL + "/v2/healthz")
		if err != nil {
			return 0
		}
		r.Body.Close()
		return r.StatusCode
	}(); code != http.StatusOK {
		t.Fatalf("healthz through pprof mux: status %d", code)
	}
}
