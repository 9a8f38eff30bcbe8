package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/server"
)

// TestFollowerBootstrapAndTail covers the tentpole's follower half:
// snapshot bootstrap, WAL tailing through the lifecycle replay path,
// read-only serving, readiness, and write refusal.
func TestFollowerBootstrapAndTail(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pNode, pSrv, m, pool := startPrimary(t, ctx, "alpha", 1, PrimaryOptions{})
	fNode, fSrv := startFollower(t, ctx, pSrv.URL)

	waitFor(t, 15*time.Second, "follower ready", func() bool {
		ri := fNode.ReplInfo()
		return ri.Ready && len(fNode.Portfolio().Buildings()) == 1
	})

	// Absorb scans with unique MACs on the primary; the follower must
	// apply each one through the shipped WAL.
	macs := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		rec, mac := uniqueScan(pool[i], i)
		if _, err := m.Classify(ctx, &rec, core.WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
		macs = append(macs, mac)
	}
	waitFor(t, 15*time.Second, "follower to apply 5 absorbs", func() bool {
		return fNode.ReplInfo().AppliedRecords >= 5
	})
	sys, err := fNode.Portfolio().System("alpha")
	if err != nil {
		t.Fatalf("follower System: %v", err)
	}
	for _, mac := range macs {
		if !sys.HasMAC(mac) {
			t.Fatalf("follower missing absorbed MAC %s", mac)
		}
	}

	// The follower serves reads and reports ready on /v2/healthz.
	if status, body := postClassify(t, fSrv.URL, "/v2/classify", &pool[10], false); status != http.StatusOK {
		t.Fatalf("follower classify: status %d body %v", status, body)
	}
	if got := httpStatus(t, fSrv.URL+"/v2/healthz"); got != http.StatusOK {
		t.Fatalf("follower healthz: %d", got)
	}

	// Writes are refused with 421 and point at the primary.
	status, body := postClassify(t, fSrv.URL, "/v2/absorb", &pool[11], true)
	if status != http.StatusMisdirectedRequest {
		t.Fatalf("follower absorb: status %d, want 421 (body %v)", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, pSrv.URL) {
		t.Fatalf("421 body should name the primary, got %v", body)
	}

	// Primary repl status advertises the building and its segments.
	st, err := NewClientWith(pSrv.URL, 0, nil).Status(ctx)
	if err != nil {
		t.Fatalf("primary status: %v", err)
	}
	if st.Role != string(RolePrimary) || len(st.Buildings) != 1 || st.Buildings[0] != "alpha" {
		t.Fatalf("primary status: %+v", st)
	}
	if pNode.Role() != RolePrimary {
		t.Fatalf("primary node role = %s", pNode.Role())
	}
}

// TestFollowerReBootstrapOnEpochChange forces a WAL truncation on the
// primary (snapshot → Reset → new epoch) and checks the follower
// detects 410, re-bootstraps, and keeps tracking new absorbs.
func TestFollowerReBootstrapOnEpochChange(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, pSrv, m, pool := startPrimary(t, ctx, "alpha", 2, PrimaryOptions{})
	fNode, _ := startFollower(t, ctx, pSrv.URL)

	waitFor(t, 15*time.Second, "follower ready", func() bool { return fNode.ReplInfo().Ready })
	firstEpoch := fNode.ReplInfo().Epoch

	rec0, mac0 := uniqueScan(pool[0], 100)
	if _, err := m.Classify(ctx, &rec0, core.WithAbsorb()); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	// Snapshot truncates the WAL and regenerates the epoch.
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	rec1, mac1 := uniqueScan(pool[1], 101)
	if _, err := m.Classify(ctx, &rec1, core.WithAbsorb()); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	waitFor(t, 15*time.Second, "follower re-bootstrap onto new epoch", func() bool {
		ri := fNode.ReplInfo()
		return ri.Ready && ri.Epoch != firstEpoch
	})
	sys, err := fNode.Portfolio().System("alpha")
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	// Both pre-resync absorbs arrived via the re-bootstrap snapshot
	// (the second was journaled before the follower refetched it).
	if !sys.HasMAC(mac0) || !sys.HasMAC(mac1) {
		t.Fatalf("follower missing absorbs across epochs: mac0=%v mac1=%v", sys.HasMAC(mac0), sys.HasMAC(mac1))
	}
	// Tailing works on the new epoch too: a post-resync absorb ships
	// through the new WAL.
	rec2, mac2 := uniqueScan(pool[2], 102)
	if _, err := m.Classify(ctx, &rec2, core.WithAbsorb()); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	waitFor(t, 15*time.Second, "new-epoch absorb to ship", func() bool {
		return sys.HasMAC(mac2) && fNode.ReplInfo().AppliedRecords >= 1
	})
}

// TestSemiSyncAck checks the "no acked absorb lost" mechanism: with
// MinSyncAcks=1 an absorb fails until a follower is mirroring, then
// succeeds once acks flow.
func TestSemiSyncAck(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pNode, pSrv, _, pool := startPrimary(t, ctx, "alpha", 3,
		PrimaryOptions{MinSyncAcks: 1, AckTimeout: 400 * time.Millisecond})

	// No follower yet: the absorb journals locally but the ack wait must
	// time out.
	rec, _ := uniqueScan(pool[0], 0)
	pr := pNode.state.Load().primary
	if _, err := pr.ClassifyRouted(ctx, &rec, core.WithAbsorb()); !errors.Is(err, ErrReplicationLag) {
		t.Fatalf("absorb without followers: err = %v, want ErrReplicationLag", err)
	}

	fNode, _ := startFollower(t, ctx, pSrv.URL)
	waitFor(t, 15*time.Second, "follower ready", func() bool { return fNode.ReplInfo().Ready })

	// With a live follower the ack arrives within a poll interval.
	rec2, mac2 := uniqueScan(pool[1], 1)
	if _, err := pr.ClassifyRouted(ctx, &rec2, core.WithAbsorb()); err != nil {
		t.Fatalf("semi-sync absorb with follower: %v", err)
	}
	waitFor(t, 15*time.Second, "acked absorb visible on follower", func() bool {
		sys, err := fNode.Portfolio().System("alpha")
		return err == nil && sys.HasMAC(mac2)
	})
}

// TestPromoteFollower kills a primary and promotes its follower
// directly (no router), checking the mirror audit and that the promoted
// node journals new writes under a fresh epoch.
func TestPromoteFollower(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, pSrv, m, pool := startPrimary(t, ctx, "alpha", 4, PrimaryOptions{MinSyncAcks: 1})
	fNode, fSrv := startFollower(t, ctx, pSrv.URL)
	waitFor(t, 15*time.Second, "follower ready", func() bool { return fNode.ReplInfo().Ready })

	macs := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		rec, mac := uniqueScan(pool[i], i)
		if _, err := m.Classify(ctx, &rec, core.WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
		macs = append(macs, mac)
	}
	waitFor(t, 15*time.Second, "follower applies absorbs", func() bool {
		return fNode.ReplInfo().AppliedRecords >= 4
	})

	// "Kill" the primary the way the daemon tests do: close its server
	// and abandon the manager without any shutdown hooks.
	pSrv.Close()

	res, err := fNode.Promote(ctx)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if res.Verified != res.Records+res.Skipped || res.Records < 4 {
		t.Fatalf("promotion audit mismatch: %+v", res)
	}
	if res.NewEpoch == "" || res.NewEpoch == res.FromEpoch {
		t.Fatalf("promotion must open a fresh epoch: %+v", res)
	}
	if fNode.Role() != RolePrimary {
		t.Fatalf("role after promote = %s", fNode.Role())
	}
	sys, err := fNode.Portfolio().System("alpha")
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	for _, mac := range macs {
		if !sys.HasMAC(mac) {
			t.Fatalf("promoted primary missing acked MAC %s", mac)
		}
	}

	// The promoted node now accepts writes over HTTP and serves the
	// replication surface.
	rec, mac := uniqueScan(pool[10], 50)
	if status, body := postClassify(t, fSrv.URL, "/v2/absorb", &rec, true); status != http.StatusOK {
		t.Fatalf("absorb on promoted primary: status %d body %v", status, body)
	}
	if !sys.HasMAC(mac) {
		t.Fatalf("promoted primary did not absorb %s", mac)
	}
	st, err := NewClientWith(fSrv.URL, 0, nil).Status(ctx)
	if err != nil || st.Role != string(RolePrimary) {
		t.Fatalf("promoted repl status: %+v, err %v", st, err)
	}
	// Second promote is an idempotent success.
	res2, err := fNode.Promote(ctx)
	if err != nil || !res2.AlreadyPrimary {
		t.Fatalf("re-promote: %+v, err %v", res2, err)
	}

	// Shutdown path for the promoted manager.
	if m2 := fNode.Manager(); m2 == nil {
		t.Fatal("promoted node has no manager")
	} else if err := m2.Close(); err != nil {
		t.Fatalf("close promoted manager: %v", err)
	}
}

// TestFollowerRefusesAbsorbingBatch: each line of an absorbing batch sent
// to a follower is refused as a single absorb is, with the 421 message
// naming the primary, and the follower's model is left as it was.
func TestFollowerRefusesAbsorbingBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, pSrv, _, pool := startPrimary(t, ctx, "alpha", 5, PrimaryOptions{})
	fNode, fSrv := startFollower(t, ctx, pSrv.URL)
	waitFor(t, 15*time.Second, "follower ready", func() bool { return fNode.ReplInfo().Ready })

	var scans []dataset.Record
	var macs []string
	for i := 0; i < 3; i++ {
		rec, mac := uniqueScan(pool[i], i)
		scans = append(scans, rec)
		macs = append(macs, mac)
	}
	for i, item := range postBatch(t, fSrv.URL, "?absorb=true", scans) {
		if item.Result != nil || !strings.Contains(item.Error, server.ErrReadOnly.Error()) || !strings.Contains(item.Error, pSrv.URL) {
			t.Errorf("line %d: %+v, want the read-only refusal naming %s", i, item, pSrv.URL)
		}
	}
	sys, err := fNode.Portfolio().System("alpha")
	if err != nil {
		t.Fatalf("follower System: %v", err)
	}
	for _, mac := range macs {
		if sys.HasMAC(mac) {
			t.Errorf("follower absorbed MAC %s from a refused batch", mac)
		}
	}
}

// TestNodeRoutesAnswer405: a replication or admin route asked with
// another method answers 405 with the allowed methods, not the serving
// surface's 404.
func TestNodeRoutesAnswer405(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, pSrv, _, _ := startPrimary(t, ctx, "alpha", 6, PrimaryOptions{})
	for _, tc := range []struct{ method, path, allow string }{
		{http.MethodPost, "/v2/repl/status", "GET, HEAD"},
		{http.MethodGet, "/v2/admin/promote", "POST"},
	} {
		req, err := http.NewRequest(tc.method, pSrv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != tc.allow {
			t.Errorf("%s %s: status %d, Allow %q; want 405, Allow %q", tc.method, tc.path, resp.StatusCode, resp.Header.Get("Allow"), tc.allow)
		}
	}
}

// TestReplInfoLastSync: only a follower that has synced reports
// last_sync; a primary's and the router's replication blocks carry no
// such key rather than the zero time.
func TestReplInfoLastSync(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, pSrv, _, _ := startPrimary(t, ctx, "alpha", 7, PrimaryOptions{})
	fNode, fSrv := startFollower(t, ctx, pSrv.URL)
	rt, err := NewRouter(RouterOptions{Groups: [][]string{{pSrv.URL}}, HealthInterval: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(ctx)
	defer rt.Stop()
	rSrv := httptest.NewServer(rt)
	defer rSrv.Close()
	waitFor(t, 15*time.Second, "follower ready", func() bool { return fNode.ReplInfo().Ready })

	replication := func(base, path string) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body struct {
			Replication map[string]json.RawMessage `json:"replication"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Replication == nil {
			t.Fatalf("GET %s%s: no replication block (%v)", base, path, err)
		}
		return body.Replication
	}
	for _, path := range []string{"/v2/healthz", "/v2/stats"} {
		for _, node := range []struct{ role, url string }{{"primary", pSrv.URL}, {"router", rSrv.URL}} {
			if raw, ok := replication(node.url, path)["last_sync"]; ok {
				t.Errorf("%s %s: last_sync %s, want none", node.role, path, raw)
			}
		}
		raw, ok := replication(fSrv.URL, path)["last_sync"]
		var synced time.Time
		if !ok || json.Unmarshal(raw, &synced) != nil || time.Since(synced) > time.Minute {
			t.Errorf("follower %s: last_sync %s, want its recent sync time", path, raw)
		}
	}
}
