package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/lifecycle"
	"repro/internal/simulate"
)

// fastConfig keeps model fits cheap enough for replication tests.
func fastConfig() core.Config {
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	return cfg
}

// campus builds one simulated building's train split plus a test pool.
func campus(t testing.TB, name string, seed int64) (train, test []dataset.Record) {
	t.Helper()
	corpus, err := simulate.Generate(simulate.Campus3F(30, seed))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	corpus.Buildings[0].Name = name
	rng := rand.New(rand.NewSource(seed + 1))
	train, test, err = dataset.Split(&corpus.Buildings[0], 0.7, rng)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	dataset.SelectLabels(train, 4, rng)
	return train, test
}

// startPrimary boots a trained primary node and serves it.
func startPrimary(t *testing.T, ctx context.Context, building string, seed int64, popts PrimaryOptions) (*Node, *httptest.Server, *lifecycle.Manager, []dataset.Record) {
	t.Helper()
	train, pool := campus(t, building, seed)
	dir := t.TempDir()
	m, err := lifecycle.OpenCtx(ctx, fastConfig(), lifecycle.Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("lifecycle.Open: %v", err)
	}
	if err := m.Portfolio().AddBuildingCtx(ctx, building, train); err != nil {
		t.Fatalf("AddBuilding: %v", err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	node, err := NewPrimaryNode(ctx, m, NodeOptions{StateDir: dir, Primary: popts, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewPrimaryNode: %v", err)
	}
	srv := httptest.NewServer(node)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { m.Close() })
	return node, srv, m, pool
}

// startFollower boots a follower of primaryURL and serves it.
func startFollower(t *testing.T, ctx context.Context, primaryURL string) (*Node, *httptest.Server) {
	t.Helper()
	node, err := NewFollowerNode(ctx, NodeOptions{
		StateDir: t.TempDir(),
		Follower: FollowerOptions{
			Primary:      primaryURL,
			Config:       fastConfig(),
			PollInterval: 25 * time.Millisecond,
			Logf:         t.Logf,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewFollowerNode: %v", err)
	}
	node.Start(ctx)
	t.Cleanup(func() { node.Close() })
	srv := httptest.NewServer(node)
	t.Cleanup(srv.Close)
	return node, srv
}

// uniqueScan derives a scan from base carrying one extra, never-seen MAC
// so its absorption is observable via System.HasMAC.
func uniqueScan(base dataset.Record, i int) (dataset.Record, string) {
	mac := fmt.Sprintf("fe:ed:00:00:%02x:%02x", i/256, i%256)
	rec := dataset.Record{
		ID:       fmt.Sprintf("absorb-%d", i),
		Readings: append(append([]dataset.Reading{}, base.Readings...), dataset.Reading{MAC: mac, RSS: -48}),
	}
	return rec, mac
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// httpStatus returns the status of a GET.
func httpStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// postClassify sends a v2 classify/absorb body and decodes the reply.
func postClassify(t *testing.T, base, path string, rec *dataset.Record, absorb bool) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"id": rec.ID, "readings": rec.Readings, "absorb": absorb})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+path, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		out = nil
	}
	return resp.StatusCode, out
}
