package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/server"
	"repro/internal/simulate"
)

// shardFleet is a router over two single-node shard groups whose
// buildings come from one simulated corpus (disjoint MAC spaces).
type shardFleet struct {
	router *Router
	srv    *httptest.Server   // the router's
	names  []string           // per building; building b lives in group b/perGroup
	pools  [][]dataset.Record // held-out scans, per building
	nodes  []*Node            // per group
	urls   []string           // per group
	hits   []*atomic.Int64    // per group: requests that reached the node outside /v2/repl/
	last   []*nodeReply       // per group: the node's latest reply outside /v2/repl/

	// inflight counts the requests outside /v2/repl/ that every node is
	// serving, and peak the most at once. While peak is below hold, a
	// request waits up to a second for others to join it.
	inflight, peak, hold atomic.Int64
}

// nodeReply is a reply as the client sees it: status, Retry-After and
// body bytes.
type nodeReply struct {
	mu         sync.Mutex
	status     int
	retryAfter string
	body       []byte
}

func (r *nodeReply) get() (int, string, []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, r.retryAfter, r.body
}

// newShardFleet boots two shard groups of perGroup buildings each plus a
// router fronting both.
func newShardFleet(t *testing.T, ctx context.Context, perGroup int) *shardFleet {
	t.Helper()
	corpus, err := simulate.Generate(simulate.MicrosoftLike(2*perGroup, 30, 7))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	f := &shardFleet{}
	var groups [][]string
	for g := 0; g < 2; g++ {
		dir := t.TempDir()
		m, err := lifecycle.OpenCtx(ctx, fastConfig(), lifecycle.Options{StateDir: dir, Logf: t.Logf})
		if err != nil {
			t.Fatalf("lifecycle.Open: %v", err)
		}
		t.Cleanup(func() { m.Close() })
		for bi := g * perGroup; bi < (g+1)*perGroup; bi++ {
			b := &corpus.Buildings[bi]
			rng := rand.New(rand.NewSource(int64(bi + 1)))
			train, pool, err := dataset.Split(b, 0.7, rng)
			if err != nil {
				t.Fatalf("split: %v", err)
			}
			dataset.SelectLabels(train, 4, rng)
			if err := m.Portfolio().AddBuildingCtx(ctx, b.Name, train); err != nil {
				t.Fatalf("AddBuilding: %v", err)
			}
			f.names = append(f.names, b.Name)
			f.pools = append(f.pools, pool)
		}
		if err := m.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		node, err := NewPrimaryNode(ctx, m, NodeOptions{StateDir: dir, Logf: t.Logf})
		if err != nil {
			t.Fatalf("NewPrimaryNode: %v", err)
		}
		hits, last := new(atomic.Int64), new(nodeReply)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v2/repl/") {
				node.ServeHTTP(w, r)
				return
			}
			hits.Add(1)
			defer f.enterHop()()
			rec := httptest.NewRecorder()
			node.ServeHTTP(rec, r)
			last.mu.Lock()
			last.status, last.retryAfter, last.body = rec.Code, rec.Header().Get("Retry-After"), rec.Body.Bytes()
			last.mu.Unlock()
			maps.Copy(w.Header(), rec.Header())
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
		t.Cleanup(srv.Close)
		f.nodes = append(f.nodes, node)
		f.urls = append(f.urls, srv.URL)
		f.hits = append(f.hits, hits)
		f.last = append(f.last, last)
		groups = append(groups, []string{srv.URL})
	}
	f.router, err = NewRouter(RouterOptions{
		Groups:         groups,
		HealthInterval: 50 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	f.router.Start(ctx)
	t.Cleanup(f.router.Stop)
	f.srv = httptest.NewServer(f.router)
	t.Cleanup(f.srv.Close)
	return f
}

// enterHop counts a request in flight on a node, raising peak, and waits
// while peak is below hold. It returns the request's exit.
func (f *shardFleet) enterHop() func() {
	n := f.inflight.Add(1)
	for p := f.peak.Load(); n > p && !f.peak.CompareAndSwap(p, n); p = f.peak.Load() {
	}
	for deadline := time.Now().Add(time.Second); f.peak.Load() < f.hold.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return func() { f.inflight.Add(-1) }
}

// macs returns the first n MACs of building b's graph.
func (f *shardFleet) macs(t *testing.T, b, n int) []string {
	t.Helper()
	perGroup := len(f.names) / len(f.nodes)
	sys, err := f.nodes[b/perGroup].Portfolio().System(f.names[b])
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	macs := sys.MACs()
	if len(macs) < n {
		t.Fatalf("building %s has %d MACs, want %d", f.names[b], len(macs), n)
	}
	return macs[:n]
}

// hitCounts snapshots the per-group request counts.
func (f *shardFleet) hitCounts() []int64 {
	out := make([]int64, len(f.hits))
	for i, h := range f.hits {
		out[i] = h.Load()
	}
	return out
}

// wantHops fails unless exactly the groups in want (by index) received
// one data-plane request each since before.
func (f *shardFleet) wantHops(t *testing.T, what string, before []int64, want ...int) {
	t.Helper()
	for gi, now := range f.hitCounts() {
		exp := int64(0)
		if slices.Contains(want, gi) {
			exp = 1
		}
		if got := now - before[gi]; got != exp {
			t.Errorf("%s: group %d received %d requests, want %d", what, gi, got, exp)
		}
	}
}

// scanOf builds a scan hearing the given MACs.
func scanOf(id string, macs ...[]string) dataset.Record {
	rec := dataset.Record{ID: id}
	for _, set := range macs {
		for _, mac := range set {
			rec.Readings = append(rec.Readings, dataset.Reading{MAC: mac, RSS: -50})
		}
	}
	return rec
}

// askEveryNode is the routing oracle: it posts scan to every group's node
// and keeps the 200 with the highest overlap (the lowest group on equal
// overlap), else the lowest group's answer that is not a 422, else a
// 422. It returns the kept answer's group (-1 for none), status and
// building.
func (f *shardFleet) askEveryNode(t *testing.T, scan *dataset.Record) (group, status int, building string) {
	t.Helper()
	group, status = -1, http.StatusUnprocessableEntity
	best := -1.0
	for g, u := range f.urls {
		code, body := postClassify(t, u, "/v2/classify", scan, false)
		overlap, _ := body["overlap"].(float64)
		switch {
		case code == http.StatusOK && overlap > best:
			group, status, best = g, code, overlap
			building, _ = body["building"].(string)
		case code != http.StatusOK && code != http.StatusUnprocessableEntity && group < 0:
			group, status = g, code
		}
	}
	return group, status, building
}

func TestRouterForwardsReadsAndWrites(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 1)

	// Reads for either building resolve through the router to the right
	// shard.
	for gi := range f.pools {
		status, body := postClassify(t, f.srv.URL, "/v2/classify", &f.pools[gi][0], false)
		if status != http.StatusOK {
			t.Fatalf("routed classify group %d: status %d body %v", gi, status, body)
		}
		if got, _ := body["building"].(string); got != f.names[gi] {
			t.Fatalf("scan for group %d attributed to %q, want %q", gi, got, f.names[gi])
		}
	}

	// An absorb via the router lands on exactly the owning shard's
	// journal.
	rec, mac := uniqueScan(f.pools[1][1], 7)
	status, body := postClassify(t, f.srv.URL, "/v2/absorb", &rec, true)
	if status != http.StatusOK {
		t.Fatalf("routed absorb: status %d body %v", status, body)
	}
	sys1, err := f.nodes[1].Portfolio().System(f.names[1])
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	if !sys1.HasMAC(mac) {
		t.Fatal("absorb did not reach the owning shard")
	}
	sys0, err := f.nodes[0].Portfolio().System(f.names[0])
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	if sys0.HasMAC(mac) {
		t.Fatal("absorb leaked to a non-owning shard")
	}

	// A scan no shard can attribute is a 422 that reaches no node.
	junk := dataset.Record{ID: "junk", Readings: []dataset.Reading{{MAC: "de:ad:be:ef:00:01", RSS: -40}}}
	before := f.hitCounts()
	if status, _ := postClassify(t, f.srv.URL, "/v2/classify", &junk, false); status != http.StatusUnprocessableEntity {
		t.Fatalf("unattributable scan: status %d, want 422", status)
	}
	f.wantHops(t, "unattributable scan", before)
}

// TestRouterReadAndAbsorbTakeOneHop counts the requests each node sees:
// a read that also hears the other group's MACs and an absorb each reach
// only the group holding their building.
func TestRouterReadAndAbsorbTakeOneHop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 1)

	read := f.pools[0][0]
	read.Readings = append(slices.Clone(read.Readings), scanOf("", f.macs(t, 1, 2)).Readings...)
	before := f.hitCounts()
	routed := routedReadsTotal.Load()
	status, body := postClassify(t, f.srv.URL, "/v2/classify", &read, false)
	if got, _ := body["building"].(string); status != http.StatusOK || got != f.names[0] {
		t.Fatalf("read: status %d body %v, want 200 from %s", status, body, f.names[0])
	}
	f.wantHops(t, "read", before, 0)
	if got := routedReadsTotal.Load() - routed; got != 1 {
		t.Errorf("routed reads: +%d, want +1", got)
	}

	absorb, _ := uniqueScan(f.pools[1][2], 11)
	before = f.hitCounts()
	if status, body := postClassify(t, f.srv.URL, "/v2/absorb", &absorb, true); status != http.StatusOK {
		t.Fatalf("absorb: status %d body %v", status, body)
	}
	f.wantHops(t, "absorb", before, 1)
}

// TestRouterAnswersAsTheNode: the router decodes a node's answer and
// encodes it again, so for reads, absorbs and refusals alike its status,
// Retry-After and body bytes must be the owning node's own.
func TestRouterAnswersAsTheNode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 2) // buildings 0, 1 in group 0; 2, 3 in group 1
	m := func(b, n int) []string { return f.macs(t, b, n) }
	absorbed, _ := uniqueScan(f.pools[2][1], 21)
	absorbedViaClassify, _ := uniqueScan(f.pools[0][1], 22)
	weak := f.pools[0][2]
	weak.Readings = slices.Clone(weak.Readings)
	weak.Readings[0].RSS = -130
	cases := []struct {
		name, path string
		body       map[string]any
		group      int
		want       int
	}{
		{"read", "/v2/classify", map[string]any{"id": "r", "readings": f.pools[0][0].Readings}, 0, http.StatusOK},
		{"read with top_k 3", "/v2/classify", map[string]any{"id": "k", "readings": f.pools[3][0].Readings, "top_k": 3}, 1, http.StatusOK},
		{"absorb", "/v2/absorb", map[string]any{"id": absorbed.ID, "readings": absorbed.Readings}, 1, http.StatusOK},
		{"absorbing classify", "/v2/classify", map[string]any{"id": absorbedViaClassify.ID, "readings": absorbedViaClassify.Readings, "absorb": true}, 0, http.StatusOK},
		{"tie within a group", "/v2/classify", map[string]any{"id": "t", "readings": scanOf("t", m(0, 2), m(1, 2)).Readings}, 0, http.StatusConflict},
		{"known MAC at -130 dBm", "/v2/classify", map[string]any{"id": "w", "readings": weak.Readings}, 0, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			before := f.hitCounts()
			resp, err := http.Post(f.srv.URL+tc.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s: %v", tc.path, err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			f.wantHops(t, tc.name, before, tc.group)
			status, retryAfter, nodeBody := f.last[tc.group].get()
			if resp.StatusCode != tc.want || status != tc.want {
				t.Fatalf("router %d, node %d; want %d (router body %s)", resp.StatusCode, status, tc.want, got)
			}
			if ra := resp.Header.Get("Retry-After"); ra != retryAfter || !bytes.Equal(got, nodeBody) {
				t.Errorf("router answered Retry-After %q body %s; the node %q %s", ra, got, retryAfter, nodeBody)
			}
		})
	}
}

// TestRouterIndexMatchesNodes is the routing differential: for every
// kind of scan the router must answer with the status and building that
// asking every group's node and keeping the best answer gives, in one
// hop to that answer's group, or in none when no group attributes the
// scan.
func TestRouterIndexMatchesNodes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 2) // buildings 0, 1 in group 0; 2, 3 in group 1
	name := func(b int) string { return f.names[b] }
	unknown := []string{"de:ad:00:00:00:01", "de:ad:00:00:00:02", "de:ad:00:00:00:03"}
	m := func(b, n int) []string { return f.macs(t, b, n) }
	own := f.pools[0][0]
	cases := []struct {
		name       string
		scan       dataset.Record
		wantStatus int
		want       string // building; "" for an error
	}{
		{"own scan plus neighbour MACs", scanOf("n", macsOf(own), m(2, 2)), http.StatusOK, name(0)},
		{"higher overlap in group 1", scanOf("h", m(0, 1), m(3, 3)), http.StatusOK, name(3)},
		{"equal overlap across groups", scanOf("e", m(2, 2), m(0, 2)), http.StatusOK, name(0)},
		{"tie within group 0", scanOf("t0", m(0, 2), m(1, 2)), http.StatusConflict, ""},
		{"tie within group 0, strict winner in group 1", scanOf("t0w", m(0, 2), m(1, 2), m(2, 1)), http.StatusOK, name(2)},
		{"tie within group 1, strict winner in group 0", scanOf("t1w", m(2, 2), m(3, 2), m(1, 1)), http.StatusOK, name(1)},
		{"ties in both groups", scanOf("tt", m(0, 1), m(1, 1), m(2, 1), m(3, 1)), http.StatusConflict, ""},
		{"known MAC among unknown ones", scanOf("k", unknown, m(3, 1)), http.StatusOK, name(3)},
		{"unknown MACs only", scanOf("u", unknown), http.StatusUnprocessableEntity, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			group, nodeStatus, nodeBuilding := f.askEveryNode(t, &tc.scan)
			before := f.hitCounts()
			status, viaIndex := postClassify(t, f.srv.URL, "/v2/classify", &tc.scan, false)
			got, _ := viaIndex["building"].(string)
			if status != nodeStatus || got != nodeBuilding {
				t.Fatalf("router: %d %q; nodes: %d %q", status, got, nodeStatus, nodeBuilding)
			}
			f.wantHops(t, tc.name, before, group)
			if status != tc.wantStatus || got != tc.want {
				t.Fatalf("status %d building %q, want %d %q (body %v)", status, got, tc.wantStatus, tc.want, viaIndex)
			}
		})
	}

	// The group holding the winning building has no serving member: the
	// read fails rather than falling back to another group's weaker match.
	fResp, err := http.Post(f.srv.URL+"/v2/admin/fleet/drain?member="+f.urls[1], "", nil)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	fResp.Body.Close()
	scan := scanOf("drained", m(0, 1), m(3, 3))
	if status, body := postClassify(t, f.srv.URL, "/v2/classify", &scan, false); status != http.StatusBadGateway {
		t.Fatalf("owning group drained: status %d body %v, want 502", status, body)
	}
}

// TestRouterIndexesGroupWithoutPrimary boots a router while one group's
// primary is down and its follower serves. The group's buildings must
// still be in the index, built from the follower's report: a scan of
// the group's building that also hears a neighbour group's MACs reads
// its own building, and its absorb fails for want of a primary instead
// of landing in the neighbour's building.
func TestRouterIndexesGroupWithoutPrimary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, p0Srv, _, pool := startPrimary(t, ctx, "alpha", 21, PrimaryOptions{})
	f0, f0Srv := startFollower(t, ctx, p0Srv.URL)
	waitFor(t, 20*time.Second, "follower ready", func() bool { return f0.ReplInfo().Ready })
	p1, p1Srv, _, _ := startPrimary(t, ctx, "beta", 22, PrimaryOptions{})
	p0Srv.Close()

	router, err := NewRouter(RouterOptions{
		Groups:         [][]string{{p0Srv.URL, f0Srv.URL}, {p1Srv.URL}},
		HealthInterval: 50 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	router.Start(ctx)
	t.Cleanup(router.Stop)
	rSrv := newTestServer(t, router)

	beta, err := p1.Portfolio().System("beta")
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	scan := pool[0]
	scan.Readings = append(slices.Clone(scan.Readings), scanOf("", beta.MACs()[:2]).Readings...)
	status, body := postClassify(t, rSrv.URL, "/v2/classify", &scan, false)
	if got, _ := body["building"].(string); status != http.StatusOK || got != "alpha" {
		t.Fatalf("read: status %d body %v, want 200 from alpha", status, body)
	}

	absorb, mac := uniqueScan(scan, 5)
	if status, body := postClassify(t, rSrv.URL, "/v2/absorb", &absorb, true); status != http.StatusBadGateway {
		t.Fatalf("absorb with no primary: status %d body %v, want 502", status, body)
	}
	if beta, err = p1.Portfolio().System("beta"); err != nil {
		t.Fatalf("System: %v", err)
	}
	if beta.HasMAC(mac) {
		t.Fatal("absorb of an alpha scan landed in beta")
	}
}

func macsOf(rec dataset.Record) []string {
	out := make([]string, len(rec.Readings))
	for i, rd := range rec.Readings {
		out[i] = rd.MAC
	}
	return out
}

// TestRouterMACPollsCarryOnlyChanges checks the index feed: a status
// poll at the current version carries no MAC sets, and once a routed
// absorb adds a MAC, the next poll lets a scan of only that MAC route in
// one hop.
func TestRouterMACPollsCarryOnlyChanges(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 1)
	c := NewClientWith(f.urls[1], 0, nil)

	full, err := c.StatusMACs(ctx, 0)
	if err != nil {
		t.Fatalf("StatusMACs: %v", err)
	}
	if full.MACsVersion == 0 || len(full.MACs[f.names[1]]) == 0 {
		t.Fatalf("first poll: version %d, %d buildings' MACs", full.MACsVersion, len(full.MACs))
	}
	same, err := c.StatusMACs(ctx, full.MACsVersion)
	if err != nil {
		t.Fatalf("StatusMACs: %v", err)
	}
	if same.MACsVersion != full.MACsVersion || same.MACs != nil {
		t.Fatalf("poll at the current version: version %d (was %d), %d buildings' MACs, want none",
			same.MACsVersion, full.MACsVersion, len(same.MACs))
	}
	if plain, err := c.Status(ctx); err != nil || plain.MACs != nil || plain.MACsVersion != 0 {
		t.Fatalf("poll without ?macs=: %+v, %v; want no MAC fields", plain, err)
	}

	rec, mac := uniqueScan(f.pools[1][1], 3)
	if status, body := postClassify(t, f.srv.URL, "/v2/absorb", &rec, true); status != http.StatusOK {
		t.Fatalf("routed absorb: status %d body %v", status, body)
	}
	grown, err := c.StatusMACs(ctx, full.MACsVersion)
	if err != nil {
		t.Fatalf("StatusMACs: %v", err)
	}
	if grown.MACsVersion == full.MACsVersion || !slices.Contains(grown.MACs[f.names[1]], mac) {
		t.Fatalf("after absorbing %s: version %d (was %d), MACs hold it: %v", mac, grown.MACsVersion,
			full.MACsVersion, slices.Contains(grown.MACs[f.names[1]], mac))
	}

	f.router.pollAll(ctx)
	only := scanOf("new-mac-only", []string{mac})
	before := f.hitCounts()
	status, body := postClassify(t, f.srv.URL, "/v2/classify", &only, false)
	if got, _ := body["building"].(string); status != http.StatusOK || got != f.names[1] {
		t.Fatalf("scan of the new MAC: status %d body %v, want 200 from %s", status, body, f.names[1])
	}
	f.wantHops(t, "scan of the new MAC", before, 1)
}

// TestRouterRoutesAbsorbedMACsBeforeNextPoll: a routed absorb teaches
// the router its new MACs, so a scan of only those MACs reaches the
// owning group in one hop with no poll in between.
func TestRouterRoutesAbsorbedMACsBeforeNextPoll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 1)
	f.router.Stop() // no poll runs from here on; the router keeps serving

	rec, mac := uniqueScan(f.pools[1][1], 4)
	if status, body := postClassify(t, f.srv.URL, "/v2/absorb", &rec, true); status != http.StatusOK {
		t.Fatalf("routed absorb: status %d body %v", status, body)
	}
	only := scanOf("new-mac-only", []string{mac})
	before := f.hitCounts()
	status, body := postClassify(t, f.srv.URL, "/v2/classify", &only, false)
	if got, _ := body["building"].(string); status != http.StatusOK || got != f.names[1] {
		t.Fatalf("scan of the new MAC: status %d body %v, want 200 from %s", status, body, f.names[1])
	}
	f.wantHops(t, "scan of the new MAC", before, 1)
}

// writeStubStatus answers a status poll as a ready node in role whose
// one building "b" holds one MAC, aa:bb:cc:dd:ee:01. It names an epoch,
// so a follower can be promoted.
func writeStubStatus(w http.ResponseWriter, role Role) {
	json.NewEncoder(w).Encode(ReplStatus{
		ReplInfo:    server.ReplInfo{Role: string(role), Ready: true, Epoch: "e1"},
		MACsVersion: 1,
		MACs:        map[string][]string{"b": {"aa:bb:cc:dd:ee:01"}},
	})
}

// TestRouterSilentGroupIs502: while a group has never reported its MAC
// sets, a scan the index cannot route may be that group's, so it is a
// 502, not a 422.
func TestRouterSilentGroupIs502(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/repl/status" {
			w.WriteHeader(http.StatusUnprocessableEntity) // as a node refuses an alien scan
			return
		}
		writeStubStatus(w, RolePrimary)
	}))
	defer node.Close()
	silent := httptest.NewServer(http.NotFoundHandler())
	silent.Close()
	rt, err := NewRouter(RouterOptions{Groups: [][]string{{node.URL}, {silent.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)
	defer rt.Stop()
	srv := httptest.NewServer(rt)
	defer srv.Close()
	alien := scanOf("alien", []string{"de:ad:00:00:00:01"})
	if status, body := postClassify(t, srv.URL, "/v2/classify", &alien, false); status != http.StatusBadGateway {
		t.Fatalf("alien scan with group 1 silent: status %d body %v, want 502", status, body)
	}
}

// TestRouterReusesNodeConnections: the router keeps an idle connection
// per concurrent forward, so later bursts of forwards to one node reuse
// the connections the first burst opened instead of dialling again.
func TestRouterReusesNodeConnections(t *testing.T) {
	const fanout, rounds = 16, 5
	var (
		mu      sync.Mutex
		arrived int
		gate    = make(chan struct{})
	)
	node := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold each request until the whole burst is in flight, so every
		// forward of a burst needs a connection of its own.
		mu.Lock()
		g := gate
		if arrived++; arrived == fanout {
			arrived = 0
			close(gate)
			gate = make(chan struct{})
		}
		mu.Unlock()
		<-g
		w.Write([]byte("{}"))
	}))
	var opened atomic.Int64
	node.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	node.Start()
	defer node.Close()
	rt, err := NewRouter(RouterOptions{Groups: [][]string{{node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	var first int64
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < fanout; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := rt.members[0].client.forward(context.Background(), http.MethodPost, "/v2/classify", []byte("{}"))
				if err != nil || rep.status != http.StatusOK {
					t.Errorf("forward: status %d, err %v", rep.status, err)
				}
			}()
		}
		wg.Wait()
		if round == 0 {
			first = opened.Load()
			continue
		}
		if n := opened.Load() - first; n != 0 {
			t.Fatalf("round %d opened %d new connections; the first round's %d should have been reused", round, n, first)
		}
	}
}

// TestRouterRemoveMACEscapesPath is the regression test for forwarding
// an unescaped MAC: DELETE /v2/macs/X%3Fjunk names the MAC "X?junk",
// which no node knows, and must not reach a node as /v2/macs/X?junk and
// retire X.
func TestRouterRemoveMACEscapesPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 1)
	mac := f.macs(t, 0, 1)[0]
	req, err := http.NewRequest(http.MethodDelete, f.srv.URL+"/v2/macs/"+mac+"%3Fjunk", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE /v2/macs/%s%%3Fjunk: status %d, want 404", mac, resp.StatusCode)
	}
	sys, err := f.nodes[0].Portfolio().System(f.names[0])
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	if !sys.HasMAC(mac) {
		t.Errorf("MAC %s was retired by a request for %s?junk", mac, mac)
	}
}

// TestRouterReportsPartialMACRetirement: a retirement one group applied
// and another failed is a 502 with the failing group's message,
// whichever group answers first, since the MAC may still be live on the
// failing one.
func TestRouterReportsPartialMACRetirement(t *testing.T) {
	stub := func(status int, body string) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v2/repl/status" {
				json.NewEncoder(w).Encode(ReplStatus{ReplInfo: server.ReplInfo{Role: string(RolePrimary), Ready: true}})
				return
			}
			w.WriteHeader(status)
			w.Write([]byte(body))
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	retired := stub(http.StatusOK, `{"buildings":1}`)
	failing := stub(http.StatusServiceUnavailable, `{"error":"journal degraded"}`)
	for _, groups := range [][][]string{{{retired.URL}, {failing.URL}}, {{failing.URL}, {retired.URL}}} {
		rt, err := NewRouter(RouterOptions{Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		rt.Start(ctx)
		srv := httptest.NewServer(rt)
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v2/macs/aa:bb", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		var body struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		srv.Close()
		rt.Stop()
		cancel()
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(body.Error, "journal degraded") {
			t.Errorf("groups %v: status %d error %q, want 502 naming the failing group's error", groups, resp.StatusCode, body.Error)
		}
	}
}

func TestRouterBatchStatsAndAdmin(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 1)

	// Batch: scans from both shards, NDJSON back in order.
	var lines []string
	for gi := range f.pools {
		b, _ := json.Marshal(map[string]any{"id": fmt.Sprintf("g%d", gi), "readings": f.pools[gi][2].Readings})
		lines = append(lines, string(b))
	}
	resp, err := http.Post(f.srv.URL+"/v2/classify/batch", "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for gi := 0; gi < 2; gi++ {
		var item server.StreamItem
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("decode batch line %d: %v", gi, err)
		}
		if item.ID != fmt.Sprintf("g%d", gi) || item.Result == nil {
			t.Fatalf("batch line %d: %+v", gi, item)
		}
	}

	// Stats aggregate across shards.
	sResp, err := http.Get(f.srv.URL + "/v2/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer sResp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(sResp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Buildings != 2 || len(stats.PerBuilding) != 2 {
		t.Fatalf("aggregated stats: %+v", stats)
	}

	// Fleet admin: healthy topology with one primary per group.
	fResp, err := http.Get(f.srv.URL + "/v2/admin/fleet")
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	defer fResp.Body.Close()
	var fs FleetStatus
	if err := json.NewDecoder(fResp.Body).Decode(&fs); err != nil {
		t.Fatalf("decode fleet: %v", err)
	}
	if !fs.Healthy || len(fs.Groups) != 2 || fs.Groups[0].Primary == "" || fs.Groups[1].Primary == "" {
		t.Fatalf("fleet status: %+v", fs)
	}
	if got := httpStatus(t, f.srv.URL+"/v2/healthz"); got != http.StatusOK {
		t.Fatalf("router healthz: %d", got)
	}

	// Drain pulls a member out of rotation and undo restores it.
	member := fs.Groups[0].Primary
	dResp, err := http.Post(f.srv.URL+"/v2/admin/fleet/drain?member="+member, "", nil)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	dResp.Body.Close()
	if status, _ := postClassify(t, f.srv.URL, "/v2/classify", &f.pools[0][3], false); status != http.StatusBadGateway && status != http.StatusUnprocessableEntity {
		t.Fatalf("classify with sole member drained: status %d, want no serving member", status)
	}
	uResp, err := http.Post(f.srv.URL+"/v2/admin/fleet/drain?member="+member+"&undo=true", "", nil)
	if err != nil {
		t.Fatalf("undo drain: %v", err)
	}
	uResp.Body.Close()
	if status, _ := postClassify(t, f.srv.URL, "/v2/classify", &f.pools[0][3], false); status != http.StatusOK {
		t.Fatalf("classify after undo drain: status %d", status)
	}
}

// postBatch sends scans as an NDJSON batch with the given query and
// decodes the reply's lines.
func postBatch(t *testing.T, base, query string, scans []dataset.Record) []server.StreamItem {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range scans {
		if err := enc.Encode(scans[i]); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	resp, err := http.Post(base+"/v2/classify/batch"+query, "application/x-ndjson", &body)
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	items := make([]server.StreamItem, len(scans))
	dec := json.NewDecoder(resp.Body)
	for i := range items {
		if err := dec.Decode(&items[i]); err != nil {
			t.Fatalf("decode batch line %d: %v", i, err)
		}
		if items[i].ID != scans[i].ID {
			t.Fatalf("batch line %d is %q, want %q", i, items[i].ID, scans[i].ID)
		}
	}
	return items
}

// TestRouterBatchRoutesEachScan: a routed batch goes through
// ClassifyRouted scan by scan. An absorbing batch lands each scan on its
// owning group's primary only, and a 64-scan read batch keeps at least
// 16 hops in flight at once.
func TestRouterBatchRoutesEachScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 1)

	var reads []dataset.Record
	var owner []string
	for i := 0; len(reads) < 64; i++ {
		gi := i % 2
		rec := f.pools[gi][i/2%len(f.pools[gi])]
		rec.ID = fmt.Sprintf("read-%d", i)
		reads = append(reads, rec)
		owner = append(owner, f.names[gi])
	}
	f.hold.Store(16)
	for i, item := range postBatch(t, f.srv.URL, "", reads) {
		if item.Result == nil || item.Result.Building != owner[i] {
			t.Fatalf("read line %d: %+v, want a result from %s", i, item, owner[i])
		}
	}
	f.hold.Store(0)
	if got := f.peak.Load(); got < 16 {
		t.Errorf("a 64-scan batch kept at most %d hops in flight, want at least 16", got)
	} else {
		t.Logf("a 64-scan batch kept up to %d hops in flight", got)
	}

	var absorbs []dataset.Record
	var macs []string
	for i := 0; i < 4; i++ {
		rec, mac := uniqueScan(f.pools[i%2][i], 100+i)
		absorbs = append(absorbs, rec)
		macs = append(macs, mac)
	}
	for i, item := range postBatch(t, f.srv.URL, "?absorb=true", absorbs) {
		gi := i % 2
		if item.Result == nil || !item.Result.Absorbed || item.Result.Building != f.names[gi] {
			t.Fatalf("absorb line %d: %+v, want %s absorbed", i, item, f.names[gi])
		}
		for g, node := range f.nodes {
			sys, err := node.Portfolio().System(f.names[g])
			if err != nil {
				t.Fatalf("System: %v", err)
			}
			if sys.HasMAC(macs[i]) != (g == gi) {
				t.Errorf("absorb %d: group %d holds its MAC %v, want only group %d to", i, g, sys.HasMAC(macs[i]), gi)
			}
		}
	}
}

// TestRouterAdminQueries: drain's ?undo= parses like every boolean query
// (undo=1 restores rotation, a malformed value is a 400 that changes
// nothing), promoting a member in no group is a 404, as draining one
// is, and a GET on promote is a 405, not the node surface's 404.
func TestRouterAdminQueries(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ReplStatus{ReplInfo: server.ReplInfo{Role: string(RolePrimary), Ready: true}})
	}))
	defer node.Close()
	rt, err := NewRouter(RouterOptions{Groups: [][]string{{node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	defer srv.Close()
	post := func(query string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+query, "", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", query, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	drained := func() bool {
		t.Helper()
		return rt.fleetStatus().Groups[0].Members[0].Drained
	}
	drain := "/v2/admin/fleet/drain?member=" + node.URL
	if got := post(drain); got != http.StatusOK || !drained() {
		t.Fatalf("drain: status %d drained %v, want 200 and drained", got, drained())
	}
	if got := post(drain + "&undo=1"); got != http.StatusOK || drained() {
		t.Errorf("undo=1: status %d drained %v, want 200 and back in rotation", got, drained())
	}
	post(drain)
	if got := post(drain + "&undo=maybe"); got != http.StatusBadRequest || !drained() {
		t.Errorf("undo=maybe: status %d drained %v, want 400 and still drained", got, drained())
	}
	if got := post("/v2/admin/fleet/promote?member=http://127.0.0.1:1"); got != http.StatusNotFound {
		t.Errorf("promote unknown member: status %d, want 404", got)
	}
	if got := httpStatus(t, srv.URL+"/v2/admin/fleet/promote"); got != http.StatusMethodNotAllowed {
		t.Errorf("GET promote: status %d, want 405", got)
	}
}

// TestRouterRelaysRetryAfter: a node's Retry-After (a 429 from its
// admission gate, a 503 from a degraded journal) reaches the client
// behind the router on both the read and the write path, so the client
// backs off as the node asked.
func TestRouterRelaysRetryAfter(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/repl/status" {
			writeStubStatus(w, RolePrimary)
			return
		}
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"shed"}`))
	}))
	defer node.Close()
	rt, err := NewRouter(RouterOptions{Groups: [][]string{{node.URL}}, RetryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)
	defer rt.Stop()
	srv := httptest.NewServer(rt)
	defer srv.Close()
	scan := `{"id":"s","readings":[{"mac":"aa:bb:cc:dd:ee:01","rss":-60}]}`
	for _, path := range []string{"/v2/classify", "/v2/absorb"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(scan))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Retry-After"); resp.StatusCode != http.StatusTooManyRequests || got != "7" {
			t.Errorf("POST %s: status %d, Retry-After %q; want 429 with the node's Retry-After 7", path, resp.StatusCode, got)
		}
	}
}

// TestRouterBatchRejectsWhatANodeRejects: the router decodes a batch with
// the node's decoder, so a batch a node refuses is refused at the router
// with the same status rather than routed scan by scan.
func TestRouterBatchRejectsWhatANodeRejects(t *testing.T) {
	p := portfolio.New(core.Config{})
	node := httptest.NewServer(server.NewHandler(p, p, server.Options{}))
	defer node.Close()
	rt, err := NewRouter(RouterOptions{Groups: [][]string{{node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	router := httptest.NewServer(rt)
	defer router.Close()
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"per-scan top_k", `{"id":"x","top_k":3,"readings":[{"mac":"aa:bb:cc:dd:ee:01","rss":-60}]}`, http.StatusBadRequest},
		{"unknown field", `{"id":"x","bogus":1,"readings":[{"mac":"aa:bb:cc:dd:ee:01","rss":-60}]}`, http.StatusBadRequest},
		{"oversized body", `{"id":"` + strings.Repeat("A", 33<<20) + `"`, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range []struct{ name, url string }{{"node", node.URL}, {"router", router.URL}} {
				resp, err := http.Post(target.url+"/v2/classify/batch", "application/x-ndjson", strings.NewReader(tc.body))
				if err != nil {
					t.Fatalf("POST to the %s: %v", target.name, err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Errorf("%s: status %d, want %d", target.name, resp.StatusCode, tc.want)
				}
			}
		})
	}
}

// TestRouterScanRejectsWhatANodeRejects: the router decodes a single
// scan with the node's decoder, so a scan a node refuses on /v2/classify
// or /v2/absorb is refused at the router with the same status rather
// than routed.
func TestRouterScanRejectsWhatANodeRejects(t *testing.T) {
	p := portfolio.New(core.Config{})
	node := httptest.NewServer(server.NewHandler(p, p, server.Options{}))
	defer node.Close()
	rt, err := NewRouter(RouterOptions{Groups: [][]string{{node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	router := httptest.NewServer(rt)
	defer router.Close()
	scan := `{"id":"x","readings":[{"mac":"aa:bb:cc:dd:ee:01","rss":-60}]}`
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"unknown field", `{"id":"x","bogus":1,"readings":[{"mac":"aa:bb:cc:dd:ee:01","rss":-60}]}`, http.StatusBadRequest},
		{"trailing bytes", scan + `{"id":"y"}`, http.StatusBadRequest},
		{"over-limit body", `{"id":"` + strings.Repeat("A", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		for _, path := range []string{"/v2/classify", "/v2/absorb"} {
			t.Run(tc.name+" on "+strings.TrimPrefix(path, "/v2/"), func(t *testing.T) {
				for _, target := range []struct{ name, url string }{{"node", node.URL}, {"router", router.URL}} {
					resp, err := http.Post(target.url+path, "application/json", strings.NewReader(tc.body))
					if err != nil {
						t.Fatalf("POST to the %s: %v", target.name, err)
					}
					resp.Body.Close()
					if resp.StatusCode != tc.want {
						t.Errorf("%s: status %d, want %d", target.name, resp.StatusCode, tc.want)
					}
				}
			})
		}
	}
}

// stubMember is a fleet member stand-in. A status poll is answered by
// writeStubStatus, or with a 500 while pollFails is set. Any other
// request is counted by path and answered with code.
type stubMember struct {
	*httptest.Server
	code      atomic.Int64
	pollFails atomic.Bool

	mu   sync.Mutex
	hits map[string]int
}

func newStubMember(t *testing.T, role Role) *stubMember {
	s := &stubMember{hits: make(map[string]int)}
	s.code.Store(http.StatusOK)
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/repl/status" {
			if s.pollFails.Load() {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			writeStubStatus(w, role)
			return
		}
		s.mu.Lock()
		s.hits[r.URL.Path]++
		s.mu.Unlock()
		w.WriteHeader(int(s.code.Load()))
		w.Write([]byte(`{"building":"b","floor":1}`))
	}))
	t.Cleanup(s.Close)
	return s
}

func (s *stubMember) count(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[path]
}

// TestRouterBreakerShedsReadsAndFailoverFollowsPolls pins what each
// failure count drives. No health loop runs: the test polls by hand.
//
//   - A follower whose classify answers 500 fails over to its sibling
//     within the request. After BreakerThreshold such failures its
//     breaker opens, /v2/admin/fleet says so and
//     grafics_fleet_breaker_opens_total rises by one, and it gets no
//     reads until a successful poll closes the breaker.
//   - A primary that answers 503 to every forwarded absorb opens its
//     breaker too, but is not failed over: failover follows three
//     consecutive failed status polls, and only then promotes its
//     follower.
func TestRouterBreakerShedsReadsAndFailoverFollowsPolls(t *testing.T) {
	const threshold = 2
	ctx := context.Background()
	scan := scanOf("s", []string{"aa:bb:cc:dd:ee:01"})
	newRouter := func(opts RouterOptions) (*Router, *httptest.Server) {
		t.Helper()
		opts.BreakerThreshold = threshold
		rt, err := NewRouter(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Stop)
		rt.pollAll(ctx)
		srv := httptest.NewServer(rt)
		t.Cleanup(srv.Close)
		return rt, srv
	}
	breaker := func(srv *httptest.Server, member int) string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v2/admin/fleet")
		if err != nil {
			t.Fatalf("GET /v2/admin/fleet: %v", err)
		}
		defer resp.Body.Close()
		var fs FleetStatus
		if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
			t.Fatalf("decode fleet: %v", err)
		}
		return fs.Groups[0].Members[member].Breaker
	}

	t.Run("breaker sheds reads", func(t *testing.T) {
		primary, bad, good := newStubMember(t, RolePrimary), newStubMember(t, RoleFollower), newStubMember(t, RoleFollower)
		bad.code.Store(http.StatusInternalServerError)
		rt, srv := newRouter(RouterOptions{Groups: [][]string{{primary.URL, bad.URL, good.URL}}})
		read := func() {
			t.Helper()
			if status, body := postClassify(t, srv.URL, "/v2/classify", &scan, false); status != http.StatusOK || body["building"] != "b" {
				t.Fatalf("read: status %d body %v, want 200 from the good follower", status, body)
			}
		}
		opens := breakerOpensTotal.Load()
		reads := 0
		for ; bad.count("/v2/classify") < threshold; reads++ {
			if reads == 4*threshold {
				t.Fatalf("%d reads reached the failing follower %d times, want %d", reads, bad.count("/v2/classify"), threshold)
			}
			read()
		}
		if got := good.count("/v2/classify"); got != reads {
			t.Fatalf("%d reads, %d answered by the good follower; each should end there", reads, got)
		}
		if got := breaker(srv, 1); got != "open" {
			t.Fatalf("after %d failed reads the breaker is %q, want open", threshold, got)
		}
		if got := breakerOpensTotal.Load() - opens; got != 1 {
			t.Errorf("breaker opens: +%d, want +1", got)
		}
		for i := 0; i < 4; i++ {
			read()
		}
		if got := bad.count("/v2/classify"); got != threshold {
			t.Fatalf("an open breaker let %d reads through", got-threshold)
		}
		if got := primary.count("/v2/classify"); got != 0 {
			t.Errorf("the primary served %d reads while a follower was ready", got)
		}

		rt.pollAll(ctx)
		if got := breaker(srv, 1); got != "closed" {
			t.Fatalf("after a successful poll the breaker is %q, want closed", got)
		}
		for i := 0; bad.count("/v2/classify") == threshold; i++ {
			if i == 4 {
				t.Fatal("a closed breaker still sheds the follower's reads")
			}
			read()
		}
		if got := breakerOpensTotal.Load() - opens; got != 1 {
			t.Errorf("breaker opens: +%d, want +1", got)
		}
	})

	t.Run("failover follows polls", func(t *testing.T) {
		primary, follower := newStubMember(t, RolePrimary), newStubMember(t, RoleFollower)
		primary.code.Store(http.StatusServiceUnavailable)
		rt, srv := newRouter(RouterOptions{Groups: [][]string{{primary.URL, follower.URL}}, RetryBudget: 1})
		for i := 0; i < threshold; i++ {
			if status, body := postClassify(t, srv.URL, "/v2/absorb", &scan, true); status != http.StatusServiceUnavailable {
				t.Fatalf("absorb: status %d body %v, want the primary's 503", status, body)
			}
		}
		if got := breaker(srv, 0); got != "open" {
			t.Fatalf("after %d failed forwards the primary's breaker is %q, want open", 2*threshold, got)
		}
		rt.checkFailover(ctx)
		if n := follower.count("/v2/admin/promote"); n != 0 {
			t.Fatalf("a primary that answers its polls was failed over (%d promotes)", n)
		}
		primary.pollFails.Store(true)
		for polls := 1; polls <= 3; polls++ {
			rt.pollAll(ctx)
			rt.checkFailover(ctx)
			want := 0
			if polls == 3 {
				want = 1
			}
			if n := follower.count("/v2/admin/promote"); n != want {
				t.Fatalf("after %d failed polls: %d promotes, want %d", polls, n, want)
			}
		}
	})
}

// TestRouterReadsDuringIndexBuild: an index build holds only the
// router's build lock from its start to its publish, and no read takes
// that lock, so routed reads complete while a build is in progress.
func TestRouterReadsDuringIndexBuild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 1)
	f.router.build.Lock()
	defer f.router.build.Unlock()
	read := func(rec dataset.Record) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := f.router.ClassifyRouted(ctx, &rec)
			done <- err
		}()
		return done
	}
	for _, tc := range []struct {
		name string
		rec  dataset.Record
		want int // HTTP status
	}{
		{"routed read", f.pools[1][0], http.StatusOK},
		{"scan no group attributes", scanOf("alien", []string{"de:ad:00:00:00:01"}), http.StatusUnprocessableEntity},
	} {
		select {
		case err := <-read(tc.rec):
			var se *server.StatusError
			switch {
			case tc.want == http.StatusOK && err != nil:
				t.Errorf("%s: %v", tc.name, err)
			case tc.want != http.StatusOK && (!errors.As(err, &se) || se.Status != tc.want):
				t.Errorf("%s: %v, want status %d", tc.name, err, tc.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited for the index build", tc.name)
		}
	}
}

// TestRouterIndexUnderConcurrentReadsAbsorbsAndPolls interleaves routed
// reads, routed absorbs that each bring a new MAC, and polls. Afterwards
// the published index must route like a fresh build of its sources'
// reports, and once a last poll has run, every absorbed MAC must route
// to the group that absorbed it.
func TestRouterIndexUnderConcurrentReadsAbsorbsAndPolls(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newShardFleet(t, ctx, 1)
	rt := f.router
	const rounds = 12
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		learned = make(map[string]int) // absorbed MAC → group
	)
	for g, pool := range f.pools {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec, mac := uniqueScan(pool[i%len(pool)], 1000*g+i)
				if _, err := rt.ClassifyRouted(ctx, &rec, core.WithAbsorb()); err != nil {
					t.Errorf("absorb %s: %v", rec.ID, err)
					return
				}
				mu.Lock()
				learned[mac] = g
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 3*rounds; i++ {
				if _, err := rt.ClassifyRouted(ctx, &pool[i%len(pool)]); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rt.pollAll(ctx)
		}
	}()
	wg.Wait()
	rt.Stop()

	srcs := make([]source, len(rt.groups))
	for gi := range srcs {
		srcs[gi] = rt.indexSource(gi)
	}
	published, fresh := rt.index.Load(), buildIndex(srcs)
	sets := fresh.Sets()
	if got := published.Sets(); !maps.EqualFunc(got, sets, slices.Equal) {
		t.Fatalf("published index holds %d buildings' sets that differ from a fresh build's %d", len(got), len(sets))
	}
	for _, macs := range sets {
		for _, mac := range macs {
			readings := scanOf("", []string{mac}).Readings
			pg, pok := published.Route(readings)
			fg, fok := fresh.Route(readings)
			if pg != fg || pok != fok {
				t.Fatalf("MAC %s: published index routes to %d (%v), a fresh build to %d (%v)", mac, pg, pok, fg, fok)
			}
		}
	}

	rt.pollAll(ctx)
	idx := rt.index.Load()
	for mac, g := range learned {
		if got, ok := idx.Route(scanOf("", []string{mac}).Readings); !ok || got != g {
			t.Errorf("absorbed MAC %s routes to group %d (%v), want %d", mac, got, ok, g)
		}
	}
}
