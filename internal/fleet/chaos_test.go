// Chaos suite: each test injects one class of real-world failure —
// network partition, slow replica disk, full primary disk, torn write
// plus crash — into a live mini-fleet under traffic, and asserts the
// two invariants the hardening work exists to protect: no absorb that
// was acknowledged with 200 is ever lost, and the fleet converges back
// to healthy once the fault clears. Faults come from internal/fault
// through the seams the production code exposes (wal.Options.OpenFile,
// FollowerOptions.Transport/OpenMirror), so the code under test is
// byte-for-byte the code that ships.

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/wal"
)

// mustHost extracts the host:port a fault.Transport partitions on.
func mustHost(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatalf("parse %q: %v", rawURL, err)
	}
	return u.Host
}

// startFollowerOpts boots a follower with chaos seams injected.
func startFollowerOpts(t *testing.T, ctx context.Context, primaryURL string, fo FollowerOptions) (*Node, *httptest.Server) {
	t.Helper()
	fo.Primary = primaryURL
	fo.Config = fastConfig()
	if fo.PollInterval == 0 {
		fo.PollInterval = 25 * time.Millisecond
	}
	fo.Logf = t.Logf
	node, err := NewFollowerNode(ctx, NodeOptions{
		StateDir: t.TempDir(),
		Follower: fo,
		Logf:     t.Logf,
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

// postAbsorb sends one absorb and returns the raw response (callers
// check status and headers; body is drained and closed).
func postAbsorb(t *testing.T, base string, rec *dataset.Record) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string]any{"id": rec.ID, "readings": rec.Readings})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v2/absorb", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v2/absorb: %v", err)
	}
	resp.Body.Close()
	return resp
}

// hasAllMACs reports whether every MAC is present in the named system.
func hasAllMACs(t *testing.T, n *Node, building string, macs []string) bool {
	t.Helper()
	sys, err := n.Portfolio().System(building)
	if err != nil {
		return false
	}
	for _, mac := range macs {
		if !sys.HasMAC(mac) {
			return false
		}
	}
	return true
}

// TestChaosPartitionHealsAndConverges cuts the network between a
// follower and its primary mid-traffic. The primary must keep acking
// absorbs (availability of the write path does not depend on one
// replica), the follower must notice it is stale and stop reporting
// Ready, and after the partition heals every absorb acked during the
// outage must appear on the follower.
func TestChaosPartitionHealsAndConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	_, pSrv, _, pool := startPrimary(t, ctx, "alpha", 21, PrimaryOptions{})
	host := mustHost(t, pSrv.URL)
	ft := fault.NewTransport(nil)
	fNode, _ := startFollowerOpts(t, ctx, pSrv.URL, FollowerOptions{
		Transport:  ft,
		StaleAfter: 250 * time.Millisecond,
	})
	waitFor(t, 20*time.Second, "follower ready", func() bool { return fNode.ReplInfo().Ready })

	var acked []string
	absorb := func(i int) {
		rec, mac := uniqueScan(pool[i%len(pool)], i)
		if resp := postAbsorb(t, pSrv.URL, &rec); resp.StatusCode == http.StatusOK {
			acked = append(acked, mac)
		} else {
			t.Fatalf("absorb %d: status %d", i, resp.StatusCode)
		}
	}
	for i := 0; i < 5; i++ {
		absorb(i)
	}
	waitFor(t, 20*time.Second, "pre-partition absorbs replicated", func() bool {
		return hasAllMACs(t, fNode, "alpha", acked)
	})

	ft.Partition(host)
	// The primary keeps acknowledging writes throughout the outage.
	for i := 100; i < 110; i++ {
		absorb(i)
	}
	waitFor(t, 20*time.Second, "follower to report stale", func() bool {
		return !fNode.ReplInfo().Ready
	})

	ft.HealPartition()
	waitFor(t, 30*time.Second, "follower to converge after heal", func() bool {
		return fNode.ReplInfo().Ready && hasAllMACs(t, fNode, "alpha", acked)
	})
	t.Logf("partition healed: all %d acked absorbs converged onto the follower", len(acked))

	// Injected faults are observable: every cut connection incremented
	// the fault counter, visible on the process metrics scrape.
	rr := httptest.NewRecorder()
	obs.Default().Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v2/metrics", nil))
	if !strings.Contains(rr.Body.String(), `grafics_fault_injected_total{kind="http_cut"}`) {
		t.Error("scrape missing grafics_fault_injected_total{kind=\"http_cut\"} after a partition")
	}
}

// TestChaosSlowDiskFollowerFallsBehindAndRecovers injects fsync latency
// into a follower's mirror disk. Under sustained absorb traffic the
// follower visibly falls behind (replication is durable-before-apply,
// so a slow disk is a slow replica); once the disk heals it catches up
// and every acked absorb is present.
func TestChaosSlowDiskFollowerFallsBehindAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	_, pSrv, _, pool := startPrimary(t, ctx, "beta", 33, PrimaryOptions{})
	disk := fault.NewDisk()
	fNode, _ := startFollowerOpts(t, ctx, pSrv.URL, FollowerOptions{
		StaleAfter: time.Minute, // isolate the lag signal from staleness
		OpenMirror: func(name string, flag int, perm os.FileMode) (MirrorFile, error) {
			return disk.OpenFile(name, flag, perm)
		},
	})
	waitFor(t, 20*time.Second, "follower ready", func() bool { return fNode.ReplInfo().Ready })

	disk.SlowSync(300 * time.Millisecond)
	var acked []string
	fellBehind := false
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		rec, mac := uniqueScan(pool[i%len(pool)], i)
		if resp := postAbsorb(t, pSrv.URL, &rec); resp.StatusCode == http.StatusOK {
			acked = append(acked, mac)
		}
		ri := fNode.ReplInfo()
		if ri.LagBytes > 0 || !hasAllMACs(t, fNode, "beta", acked) {
			fellBehind = true
		}
		if fellBehind && len(acked) >= 10 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !fellBehind {
		t.Fatal("follower never fell behind despite a 300ms-per-fsync mirror disk")
	}
	if len(acked) < 10 {
		t.Fatalf("only %d absorbs acked", len(acked))
	}

	disk.Heal()
	waitFor(t, 30*time.Second, "slow-disk follower to catch up", func() bool {
		ri := fNode.ReplInfo()
		return ri.Ready && ri.LagBytes == 0 && hasAllMACs(t, fNode, "beta", acked)
	})
	t.Logf("slow disk healed: all %d acked absorbs applied", len(acked))
}

// TestChaosDiskFullPrimaryDegradesAndResumes fills up the primary's WAL
// disk. The primary must enter degraded read-only mode — absorbs answer
// 503 with a Retry-After, reads keep answering 200, healthz reports
// "degraded" — and resume write service on its own once space returns.
// A crash-restart at the end proves no acked absorb was lost to the
// full disk.
func TestChaosDiskFullPrimaryDegradesAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	train, pool := campus(t, "gamma", 55)
	dir := t.TempDir()
	disk := fault.NewDisk()
	m, err := lifecycle.OpenCtx(ctx, fastConfig(), lifecycle.Options{
		StateDir:          dir,
		Logf:              t.Logf,
		DegradedThreshold: 2,
		DegradedProbe:     100 * time.Millisecond,
		WAL: wal.Options{
			OpenFile: func(name string, flag int, perm os.FileMode) (wal.File, error) {
				return disk.OpenFile(name, flag, perm)
			},
		},
	})
	if err != nil {
		t.Fatalf("lifecycle.Open: %v", err)
	}
	if err := m.Portfolio().AddBuildingCtx(ctx, "gamma", train); err != nil {
		t.Fatalf("AddBuilding: %v", err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	node, err := NewPrimaryNode(ctx, m, NodeOptions{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewPrimaryNode: %v", err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()

	var acked []string
	rec, mac := uniqueScan(pool[0], 0)
	if resp := postAbsorb(t, srv.URL, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy absorb: status %d", resp.StatusCode)
	}
	acked = append(acked, mac)

	// Disk full: the journal refuses every byte from here.
	disk.LimitBytes(0)
	for i := 1; i <= 2; i++ {
		rec, _ := uniqueScan(pool[i], i)
		if resp := postAbsorb(t, srv.URL, &rec); resp.StatusCode == http.StatusOK {
			t.Fatalf("absorb %d acked with a full disk", i)
		}
	}

	// Threshold crossed: degraded read-only mode. Absorbs shed with 503
	// + Retry-After without touching the disk; reads answer; healthz
	// says "degraded" but stays 200 (the node still serves reads).
	rec3, _ := uniqueScan(pool[3], 3)
	resp := postAbsorb(t, srv.URL, &rec3)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded absorb: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 missing Retry-After")
	}
	if status, _ := postClassify(t, srv.URL, "/v2/classify", &pool[4], false); status != http.StatusOK {
		t.Fatalf("read while degraded: status %d", status)
	}
	hresp, err := http.Get(srv.URL + "/v2/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || health["status"] != "degraded" {
		t.Fatalf("healthz while degraded: status %d, body %v", hresp.StatusCode, health)
	}

	// Space returns: the next probe absorb restores write service.
	disk.Heal()
	waitFor(t, 20*time.Second, "write service to resume", func() bool {
		rec, mac := uniqueScan(pool[5], 500)
		if resp := postAbsorb(t, srv.URL, &rec); resp.StatusCode != http.StatusOK {
			return false
		}
		acked = append(acked, mac)
		return true
	})
	if degraded, _ := m.Degraded(); degraded {
		t.Fatal("manager still degraded after successful absorbs")
	}

	// Crash-restart audit: abandon the manager (no shutdown hooks) and
	// reopen from disk. Every acked absorb must replay back.
	srv.Close()
	m2, err := lifecycle.OpenCtx(ctx, fastConfig(), lifecycle.Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer m2.Close()
	sys, err := m2.Portfolio().System("gamma")
	if err != nil {
		t.Fatalf("System after restart: %v", err)
	}
	for _, mac := range acked {
		if !sys.HasMAC(mac) {
			t.Errorf("acked absorb lost across disk-full + restart: %s", mac)
		}
	}
	t.Logf("disk-full cycle preserved all %d acked absorbs", len(acked))
}

// TestChaosTornWriteCrashRestart tears a WAL frame mid-write (the
// power-cut-during-append story), then crash-restarts the manager. The
// torn absorb was never acked, so it owes nothing; every absorb acked
// before and after the tear must replay back, and the replay itself
// must treat the torn bytes as crash debris rather than corruption.
func TestChaosTornWriteCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short")
	}
	train, pool := campus(t, "delta", 77)
	dir := t.TempDir()
	disk := fault.NewDisk()
	m, err := lifecycle.OpenCtx(context.Background(), fastConfig(), lifecycle.Options{
		StateDir: dir,
		Logf:     t.Logf,
		WAL: wal.Options{
			OpenFile: func(name string, flag int, perm os.FileMode) (wal.File, error) {
				return disk.OpenFile(name, flag, perm)
			},
		},
	})
	if err != nil {
		t.Fatalf("lifecycle.Open: %v", err)
	}
	if err := m.Portfolio().AddBuildingCtx(context.Background(), "delta", train); err != nil {
		t.Fatalf("AddBuilding: %v", err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	ctx := context.Background()
	var acked []string
	absorb := func(i int) error {
		rec, mac := uniqueScan(pool[i%len(pool)], i)
		_, err := m.Classify(ctx, &rec, core.WithAbsorb())
		if err == nil {
			acked = append(acked, mac)
		}
		return err
	}
	for i := 0; i < 5; i++ {
		if err := absorb(i); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}

	// Tear the very next journal write in half.
	disk.TearWriteAfter(0)
	if err := absorb(5); err == nil {
		t.Fatal("torn-write absorb was acked")
	}
	// Subsequent absorbs land in a fresh segment past the poisoned one.
	for i := 6; i < 9; i++ {
		if err := absorb(i); err != nil {
			t.Fatalf("absorb %d after tear: %v", i, err)
		}
	}

	// Crash: abandon the manager, reopen from disk (no fault hook — the
	// torn bytes are already on disk; recovery must cope with them).
	m2, err := lifecycle.OpenCtx(ctx, fastConfig(), lifecycle.Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer m2.Close()
	sys, err := m2.Portfolio().System("delta")
	if err != nil {
		t.Fatalf("System after restart: %v", err)
	}
	for _, mac := range acked {
		if !sys.HasMAC(mac) {
			t.Errorf("acked absorb lost across torn write + restart: %s", mac)
		}
	}
	t.Logf("torn-write crash preserved all %d acked absorbs", len(acked))
}
