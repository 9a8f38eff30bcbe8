package fleet

import (
	"context"
	"encoding/json"
	"fmt"
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
		hits := new(atomic.Int64)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, "/v2/repl/") {
				hits.Add(1)
			}
			node.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		f.nodes = append(f.nodes, node)
		f.urls = append(f.urls, srv.URL)
		f.hits = append(f.hits, hits)
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

func TestRouterScatterAndWriteForwarding(t *testing.T) {
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

	// A scan no shard can attribute is a 422.
	junk := dataset.Record{ID: "junk", Readings: []dataset.Reading{{MAC: "de:ad:be:ef:00:01", RSS: -40}}}
	if status, _ := postClassify(t, f.srv.URL, "/v2/classify", &junk, false); status != http.StatusUnprocessableEntity {
		t.Fatalf("unattributable scan: status %d, want 422", status)
	}
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
	index, scatter := routedIndex.Load(), routedScatter.Load()
	status, body := postClassify(t, f.srv.URL, "/v2/classify", &read, false)
	if got, _ := body["building"].(string); status != http.StatusOK || got != f.names[0] {
		t.Fatalf("read: status %d body %v, want 200 from %s", status, body, f.names[0])
	}
	f.wantHops(t, "read", before, 0)
	if routedIndex.Load() != index+1 || routedScatter.Load() != scatter {
		t.Errorf("routed reads: index +%d, scatter +%d; want +1, +0",
			routedIndex.Load()-index, routedScatter.Load()-scatter)
	}

	absorb, _ := uniqueScan(f.pools[1][2], 11)
	before = f.hitCounts()
	if status, body := postClassify(t, f.srv.URL, "/v2/absorb", &absorb, true); status != http.StatusOK {
		t.Fatalf("absorb: status %d body %v", status, body)
	}
	f.wantHops(t, "absorb", before, 1)
}

// TestRouterIndexMatchesScatter is the routing differential: for every
// kind of scan the index must pick the status and building that asking
// every group and keeping the best answer picks.
func TestRouterIndexMatchesScatter(t *testing.T) {
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
			body, err := json.Marshal(map[string]any{"id": tc.scan.ID, "readings": tc.scan.Readings})
			if err != nil {
				t.Fatal(err)
			}
			scattered := httptest.NewRecorder()
			writeOutcome(scattered, bestOutcome(f.router.scatterClassify(ctx, body)))
			var viaScatter map[string]any
			_ = json.Unmarshal(scattered.Body.Bytes(), &viaScatter)

			status, viaIndex := postClassify(t, f.srv.URL, "/v2/classify", &tc.scan, false)
			if status != scattered.Code || viaIndex["building"] != viaScatter["building"] {
				t.Fatalf("index: %d %v; scatter: %d %v", status, viaIndex["building"], scattered.Code, viaScatter["building"])
			}
			got, _ := viaIndex["building"].(string)
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
	c := NewClient(f.urls[1], 0)

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
				rep, err := rt.forward(context.Background(), http.MethodPost, node.URL, "/v2/classify", []byte("{}"))
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

// TestRouterAdminQueries: drain's ?undo= parses like every boolean query
// (undo=1 restores rotation, a malformed value is a 400 that changes
// nothing), and promoting a member in no group is a 404, as draining one
// is.
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
}

// TestRouterRelaysRetryAfter: a node's Retry-After (a 429 from its
// admission gate, a 503 from a degraded journal) reaches the client
// behind the router on both the read and the write path, so the client
// backs off as the node asked.
func TestRouterRelaysRetryAfter(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/repl/status" {
			json.NewEncoder(w).Encode(ReplStatus{ReplInfo: server.ReplInfo{Role: string(RolePrimary), Ready: true}})
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
