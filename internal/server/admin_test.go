package server

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/lifecycle"
	"repro/internal/simulate"
)

// managedServer spins up the durable deployment: a lifecycle-managed
// two-building portfolio with a state dir, served over HTTP.
func managedServer(t *testing.T, pol lifecycle.Policy) (*httptest.Server, *lifecycle.Manager, string, map[string][]dataset.Record) {
	t.Helper()
	dir := t.TempDir()
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	m, err := lifecycle.OpenCtx(context.Background(), cfg, lifecycle.Options{StateDir: dir, Policy: pol, Logf: t.Logf})
	if err != nil {
		t.Fatalf("lifecycle.Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	params := simulate.MicrosoftLike(2, 40, 9)
	params.FloorsMin, params.FloorsMax = 3, 4
	corpus, err := simulate.Generate(params)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	tests := make(map[string][]dataset.Record)
	for i := range corpus.Buildings {
		b := &corpus.Buildings[i]
		rng := rand.New(rand.NewSource(int64(i) + 1))
		train, test, err := dataset.Split(b, 0.7, rng)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		dataset.SelectLabels(train, 4, rng)
		if err := m.Portfolio().AddBuildingCtx(context.Background(), b.Name, train); err != nil {
			t.Fatalf("AddBuilding: %v", err)
		}
		tests[b.Name] = test
	}
	srv := httptest.NewServer(NewHandler(m.Portfolio(), m, Options{Lifecycle: m}))
	t.Cleanup(srv.Close)
	return srv, m, dir, tests
}

// getStatus fetches and decodes /v2/admin/lifecycle.
func getStatus(t *testing.T, url string) lifecycle.Status {
	t.Helper()
	resp, err := http.Get(url + "/v2/admin/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lifecycle status = %d", resp.StatusCode)
	}
	var st lifecycle.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// TestAdminAbsorbIsJournaled checks the wiring that makes HTTP absorbs
// durable: an absorb through /v2/absorb must land in the manager's WAL.
func TestAdminAbsorbIsJournaled(t *testing.T) {
	srv, _, _, tests := managedServer(t, lifecycle.Policy{})
	var rec dataset.Record
	for _, pool := range tests {
		rec = pool[0]
		break
	}
	resp := postJSON(t, srv.URL+"/v2/absorb", ClassifyRequest{ID: rec.ID, Readings: rec.Readings})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("absorb status = %d", resp.StatusCode)
	}
	st := getStatus(t, srv.URL)
	if st.WALRecords != 1 {
		t.Fatalf("WAL records = %d, want 1 (HTTP absorb not journaled)", st.WALRecords)
	}
}

// TestAdminRetireIsJournaled: DELETE /v2/macs through the lifecycle
// handler must journal the retirement alongside absorbs.
func TestAdminRetireIsJournaled(t *testing.T) {
	srv, m, _, tests := managedServer(t, lifecycle.Policy{})
	var mac string
	for name, pool := range tests {
		_ = pool
		sys, err := m.Portfolio().System(name)
		if err != nil {
			t.Fatal(err)
		}
		mac = sys.MACs()[0]
		break
	}
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v2/macs/"+mac, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retire status = %d", resp.StatusCode)
	}
	if st := getStatus(t, srv.URL); st.WALRecords != 1 {
		t.Fatalf("WAL records = %d, want 1 (HTTP retirement not journaled)", st.WALRecords)
	}
}

// TestAdminSnapshot checks POST /v2/admin/snapshot writes the manifest
// and truncates the WAL.
func TestAdminSnapshot(t *testing.T) {
	srv, _, dir, tests := managedServer(t, lifecycle.Policy{})
	var rec dataset.Record
	for _, pool := range tests {
		rec = pool[0]
		break
	}
	resp := postJSON(t, srv.URL+"/v2/absorb", ClassifyRequest{ID: rec.ID, Readings: rec.Readings})
	resp.Body.Close()

	resp = postJSON(t, srv.URL+"/v2/admin/snapshot", struct{}{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	var sr SnapshotResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Skipped || sr.Buildings != 2 {
		t.Fatalf("snapshot response %+v, want 2 buildings, not skipped", sr)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	if st := getStatus(t, srv.URL); st.WALRecords != 0 || st.Snapshots != 1 {
		t.Fatalf("post-snapshot status %+v, want empty WAL and 1 snapshot", st)
	}
}

// TestAdminRefit forces a refit over HTTP and polls the status route
// until it completes.
func TestAdminRefit(t *testing.T) {
	srv, m, _, _ := managedServer(t, lifecycle.Policy{})
	name := m.Portfolio().Buildings()[0]

	resp := postJSON(t, srv.URL+"/v2/admin/refit?building="+name, struct{}{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("refit status = %d, want 202", resp.StatusCode)
	}
	var rr RefitResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Started) != 1 || rr.Started[0] != name {
		t.Fatalf("refit started %v, want [%s]", rr.Started, name)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, srv.URL)
		var b *lifecycle.BuildingStatus
		for i := range st.Buildings {
			if st.Buildings[i].Building == name {
				b = &st.Buildings[i]
			}
		}
		if b == nil {
			t.Fatalf("building %s missing from status", name)
		}
		if b.Refits >= 1 && !b.Refitting {
			if b.LastRefitError != "" {
				t.Fatalf("refit failed: %s", b.LastRefitError)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refit did not complete; status %+v", b)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unknown building is a 404.
	resp = postJSON(t, srv.URL+"/v2/admin/refit?building=nope", struct{}{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refit unknown building = %d, want 404", resp.StatusCode)
	}
}

// TestAdminRoutesAbsentWithoutLifecycle: the plain handler must not
// expose admin routes.
func TestAdminRoutesAbsentWithoutLifecycle(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/v2/admin/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("admin route on plain handler = %d, want 404", resp.StatusCode)
	}
}

// TestAdminLifecycleRefitTimings: after a forced refit via the admin API,
// the per-building lifecycle status served over HTTP must carry the
// last-refit timing fields and a clean in-flight state.
func TestAdminLifecycleRefitTimings(t *testing.T) {
	srv, m, _, _ := managedServer(t, lifecycle.Policy{})
	resp, err := http.Post(srv.URL+"/v2/admin/refit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("refit status = %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.Refitting() {
		if time.Now().After(deadline) {
			t.Fatal("refit did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := getStatus(t, srv.URL)
	if len(st.Buildings) == 0 {
		t.Fatal("no buildings in lifecycle status")
	}
	for _, b := range st.Buildings {
		if b.Refits != 1 || b.LastRefitError != "" {
			t.Fatalf("refit did not succeed for %s: %+v", b.Building, b)
		}
		if b.LastRefitAt.IsZero() || b.LastRefitDurationMS <= 0 {
			t.Errorf("refit timings missing for %s: %+v", b.Building, b)
		}
		if b.Refitting || !b.RefitStartedAt.IsZero() {
			t.Errorf("idle building %s marked refitting: %+v", b.Building, b)
		}
	}
	// The raw JSON must expose the documented keys for operators/tooling.
	raw, err := http.Get(srv.URL + "/v2/admin/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	body, err := io.ReadAll(raw.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"last_refit_at", "last_refit_duration_ms", "refit_started_at", "refitting"} {
		if !strings.Contains(string(body), key) {
			t.Errorf("lifecycle JSON missing %q:\n%s", key, body)
		}
	}
}
