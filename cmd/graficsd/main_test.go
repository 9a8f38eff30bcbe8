package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/simulate"
)

// writeCorpus generates a small two-building corpus JSON on disk.
func writeCorpus(t *testing.T) (path string, corpus *dataset.Corpus) {
	t.Helper()
	params := simulate.MicrosoftLike(2, 40, 5)
	params.FloorsMin, params.FloorsMax = 3, 4
	corpus, err := simulate.Generate(params)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	raw, err := json.Marshal(corpus)
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "corpus.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, corpus
}

// boot assembles the daemon in-process and serves it over httptest.
func boot(t *testing.T, args ...string) (*app, *httptest.Server) {
	t.Helper()
	a, err := newApp(context.Background(), args, t.Logf)
	if err != nil {
		t.Fatalf("newApp(%v): %v", args, err)
	}
	srv := httptest.NewServer(a.handler)
	t.Cleanup(srv.Close)
	return a, srv
}

// postJSON posts a JSON body and returns the response.
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestKillAndRestart is the acceptance demo as a test: boot with a state
// dir, absorb scans (one with a brand-new MAC), SIGKILL (abandon the
// process state without any shutdown hook), reboot from the same state
// dir without a corpus, and classify a scan that leans on the absorbed
// MAC.
func TestKillAndRestart(t *testing.T) {
	corpusPath, corpus := writeCorpus(t)
	stateDir := filepath.Join(t.TempDir(), "state")

	a1, srv1 := boot(t,
		"-corpus", corpusPath,
		"-state-dir", stateDir,
		"-addr", "unused",
		"-samples-per-edge", "40",
	)
	if a1.buildings != 2 {
		t.Fatalf("boot trained %d buildings, want 2", a1.buildings)
	}
	// The cold start must have written the initial snapshot.
	if _, err := os.Stat(filepath.Join(stateDir, "manifest.json")); err != nil {
		t.Fatalf("initial snapshot missing: %v", err)
	}

	// Absorb a handful of scans from building 0; the first carries a MAC
	// the training corpus never saw (a newly installed AP).
	b := &corpus.Buildings[0]
	rng := rand.New(rand.NewSource(99))
	newMAC := "0a:0a:0a:0a:0a:01"
	var absorbed []dataset.Record
	for i := 0; i < 5; i++ {
		rec := b.Records[rng.Intn(len(b.Records))]
		rec.ID = fmt.Sprintf("crowd-%d", i)
		if i == 0 {
			rec.Readings = append(rec.Readings[:len(rec.Readings):len(rec.Readings)],
				dataset.Reading{MAC: newMAC, RSS: -45})
		}
		resp := postJSON(t, srv1.URL+"/v2/absorb", map[string]any{
			"id": rec.ID, "readings": rec.Readings,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("absorb %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		absorbed = append(absorbed, rec)
	}

	// SIGKILL: no final snapshot, no manager Close — just drop everything.
	srv1.Close()

	// Warm restart from the state dir alone (no corpus flag).
	a2, srv2 := boot(t,
		"-state-dir", stateDir,
		"-addr", "unused",
	)
	defer a2.shutdown(t.Logf)
	if a2.buildings != 2 {
		t.Fatalf("warm restart restored %d buildings, want 2", a2.buildings)
	}

	// The WAL replay must have brought every absorbed scan back.
	var st lifecycle.Status
	resp, err := http.Get(srv2.URL + "/v2/admin/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Replayed != len(absorbed) {
		t.Fatalf("replayed %d absorbs, want %d", st.Replayed, len(absorbed))
	}
	sys, err := a2.manager.Portfolio().System(b.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.HasMAC(newMAC) {
		t.Fatal("absorbed MAC lost across kill-and-restart")
	}

	// And /v2/classify answers a scan that leans on the absorbed MAC.
	probe := absorbed[0]
	resp = postJSON(t, srv2.URL+"/v2/classify", map[string]any{
		"id": "probe", "readings": probe.Readings,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify after restart: status %d", resp.StatusCode)
	}
	var cr struct {
		Building string `json:"building"`
		Floor    int    `json:"floor"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Building != b.Name {
		t.Fatalf("probe attributed to %q, want %q", cr.Building, b.Name)
	}
}

// TestGracefulShutdownSnapshots checks the clean path: shutdown writes a
// final snapshot so the next boot replays nothing.
func TestGracefulShutdownSnapshots(t *testing.T) {
	corpusPath, corpus := writeCorpus(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	a1, srv1 := boot(t, "-corpus", corpusPath, "-state-dir", stateDir, "-samples-per-edge", "40")

	rec := corpus.Buildings[0].Records[0]
	resp := postJSON(t, srv1.URL+"/v2/absorb", map[string]any{"id": "c-0", "readings": rec.Readings})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("absorb: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	srv1.Close()
	if err := a1.shutdown(t.Logf); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	a2, srv2 := boot(t, "-state-dir", stateDir)
	defer func() {
		srv2.Close()
		a2.shutdown(t.Logf)
	}()
	resp, err := http.Get(srv2.URL + "/v2/admin/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st lifecycle.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 0 {
		t.Fatalf("replayed %d after graceful shutdown, want 0 (snapshot covered it)", st.Replayed)
	}
	sys, err := a2.manager.Portfolio().System(corpus.Buildings[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.AbsorbedRecords(); got != 1 {
		t.Fatalf("restored absorbed records = %d, want 1", got)
	}
}

// TestBootRequiresData: no corpus and no usable state dir is an error.
func TestBootRequiresData(t *testing.T) {
	if _, err := newApp(context.Background(), []string{"-state-dir", t.TempDir()}, t.Logf); err == nil {
		t.Fatal("boot without corpus or snapshot succeeded, want error")
	}
	if _, err := newApp(context.Background(), nil, t.Logf); err == nil {
		t.Fatal("boot without any data source succeeded, want error")
	}
}

// TestValidateTopology is the contradictory-flag table: every role's
// required and forbidden combinations fail fast with a named conflict.
func TestValidateTopology(t *testing.T) {
	cases := []struct {
		name                                   string
		role, primary, peers, corpus, stateDir string
		wantErr                                string // substring; empty = valid
	}{
		{name: "single default", role: "single", corpus: "c.json"},
		{name: "single durable", role: "single", corpus: "c.json", stateDir: "/s"},
		{name: "primary", role: "primary", corpus: "c.json", stateDir: "/s"},
		{name: "follower", role: "follower", primary: "http://p:8080", stateDir: "/s"},
		{name: "router", role: "router", peers: "http://a,http://b"},

		{name: "unknown role", role: "replica", wantErr: "unknown -role"},
		{name: "single with primary", role: "single", corpus: "c.json", primary: "http://p", wantErr: "-primary is only meaningful"},
		{name: "primary with primary", role: "primary", stateDir: "/s", primary: "http://p", wantErr: "-primary is only meaningful"},
		{name: "router with primary", role: "router", peers: "http://a", primary: "http://p", wantErr: "-primary is only meaningful"},
		{name: "single with peers", role: "single", corpus: "c.json", peers: "http://a", wantErr: "-peers is only meaningful"},
		{name: "follower with peers", role: "follower", primary: "http://p", stateDir: "/s", peers: "http://a", wantErr: "-peers is only meaningful"},
		{name: "primary without state dir", role: "primary", corpus: "c.json", wantErr: "requires -state-dir"},
		{name: "follower without primary", role: "follower", stateDir: "/s", wantErr: "requires -primary"},
		{name: "follower without state dir", role: "follower", primary: "http://p", wantErr: "requires -state-dir"},
		{name: "follower with corpus", role: "follower", primary: "http://p", stateDir: "/s", corpus: "c.json", wantErr: "-corpus is contradictory"},
		{name: "router without peers", role: "router", wantErr: "requires -peers"},
		{name: "router with corpus", role: "router", peers: "http://a", corpus: "c.json", wantErr: "contradictory"},
		{name: "router with state dir", role: "router", peers: "http://a", stateDir: "/s", wantErr: "contradictory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateTopology(tc.role, tc.primary, tc.peers, tc.corpus, tc.stateDir)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid combo rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	// The same validation is reachable through flag parsing.
	if _, err := newApp(context.Background(), []string{"-role", "follower"}, t.Logf); err == nil || !strings.Contains(err.Error(), "requires -primary") {
		t.Fatalf("newApp follower without -primary: %v", err)
	}
}

// TestValidateHardening is the contradictory-flag table for the
// robustness knobs: each one only acts in specific roles, and setting
// it elsewhere fails fast with a named conflict.
func TestValidateHardening(t *testing.T) {
	cases := []struct {
		name                             string
		role                             string
		retryBudget, breaker, maxAbsorbs int
		wantErr                          string // substring; empty = valid
	}{
		{name: "single defaults", role: "single"},
		{name: "single bounded absorbs", role: "single", maxAbsorbs: 64},
		{name: "primary bounded absorbs", role: "primary", maxAbsorbs: 128},
		{name: "follower retry budget", role: "follower", retryBudget: 4},
		{name: "router retry budget", role: "router", retryBudget: 2},
		{name: "router breaker", role: "router", breaker: 3},
		{name: "router full", role: "router", retryBudget: 2, breaker: 3},

		{name: "negative retry budget", role: "router", retryBudget: -1, wantErr: "must be non-negative"},
		{name: "negative breaker", role: "router", breaker: -2, wantErr: "must be non-negative"},
		{name: "negative max absorbs", role: "single", maxAbsorbs: -1, wantErr: "must be non-negative"},
		{name: "single with retry budget", role: "single", retryBudget: 3, wantErr: "-retry-budget is only meaningful"},
		{name: "primary with retry budget", role: "primary", retryBudget: 3, wantErr: "-retry-budget is only meaningful"},
		{name: "single with breaker", role: "single", breaker: 5, wantErr: "-breaker-threshold is only meaningful"},
		{name: "follower with breaker", role: "follower", breaker: 5, wantErr: "-breaker-threshold is only meaningful"},
		{name: "primary with breaker", role: "primary", breaker: 5, wantErr: "-breaker-threshold is only meaningful"},
		{name: "router with max absorbs", role: "router", maxAbsorbs: 64, wantErr: "-max-inflight-absorbs is only meaningful"},
		{name: "follower with max absorbs", role: "follower", maxAbsorbs: 64, wantErr: "-max-inflight-absorbs is only meaningful"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateHardening(tc.role, tc.retryBudget, tc.breaker, tc.maxAbsorbs)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid combo rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	// The same validation is reachable through flag parsing.
	if _, err := newApp(context.Background(), []string{"-role", "single", "-corpus", "c.json", "-breaker-threshold", "5"}, t.Logf); err == nil || !strings.Contains(err.Error(), "-breaker-threshold is only meaningful") {
		t.Fatalf("newApp single with -breaker-threshold: %v", err)
	}
}

// TestRoleBootPrimaryFollowerRouter boots a primary, a follower, and a
// router through the daemon flag surface and checks replication plus
// routed serving work end to end.
func TestRoleBootPrimaryFollowerRouter(t *testing.T) {
	corpusPath, corpus := writeCorpus(t)

	pApp, pSrv := boot(t,
		"-role", "primary",
		"-corpus", corpusPath,
		"-state-dir", filepath.Join(t.TempDir(), "primary"),
		"-samples-per-edge", "40",
	)
	defer pApp.shutdown(t.Logf)
	if pApp.node == nil || pApp.buildings != 2 {
		t.Fatalf("primary boot: node=%v buildings=%d", pApp.node, pApp.buildings)
	}

	fApp, fSrv := boot(t,
		"-role", "follower",
		"-primary", pSrv.URL,
		"-state-dir", filepath.Join(t.TempDir(), "follower"),
		"-repl-poll", "25ms",
	)
	defer fApp.shutdown(t.Logf)

	rApp, rSrv := boot(t, "-role", "router", "-peers", pSrv.URL+","+fSrv.URL)
	defer rApp.shutdown(t.Logf)

	deadline := time.Now().Add(30 * time.Second)
	for !fApp.node.ReplInfo().Ready {
		if time.Now().After(deadline) {
			t.Fatal("follower never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A routed classify answers from the fleet.
	rec := corpus.Buildings[0].Records[0]
	resp := postJSON(t, rSrv.URL+"/v2/classify", map[string]any{"id": "probe", "readings": rec.Readings})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed classify: status %d", resp.StatusCode)
	}
	var cr struct {
		Building string `json:"building"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Building != corpus.Buildings[0].Name {
		t.Fatalf("routed classify attributed to %q, want %q", cr.Building, corpus.Buildings[0].Name)
	}

	// The follower redirects writes at the primary.
	wResp := postJSON(t, fSrv.URL+"/v2/absorb", map[string]any{"id": "w", "readings": rec.Readings})
	wResp.Body.Close()
	if wResp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower absorb: status %d, want 421", wResp.StatusCode)
	}
}

// TestRefitFlagWiring boots with -refit-after and checks absorbs trigger
// a hot swap end to end through the daemon wiring.
func TestRefitFlagWiring(t *testing.T) {
	corpusPath, corpus := writeCorpus(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	a, srv := boot(t,
		"-corpus", corpusPath,
		"-state-dir", stateDir,
		"-samples-per-edge", "40",
		"-refit-after", "3",
	)
	defer a.shutdown(t.Logf)

	b := &corpus.Buildings[0]
	for i := 0; i < 3; i++ {
		rec := b.Records[i]
		resp := postJSON(t, srv.URL+"/v2/absorb", map[string]any{
			"id": fmt.Sprintf("r-%d", i), "readings": rec.Readings,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("absorb %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v2/admin/lifecycle")
		if err != nil {
			t.Fatal(err)
		}
		var st lifecycle.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		done := false
		for _, bs := range st.Buildings {
			if bs.Building == b.Name && bs.Refits >= 1 && !bs.Refitting {
				if bs.LastRefitError != "" {
					t.Fatalf("refit failed: %s", bs.LastRefitError)
				}
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refit-after flag did not trigger a refit within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
