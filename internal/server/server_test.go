package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/portfolio"
	"repro/internal/simulate"
)

// testPortfolio trains a two-building portfolio and returns held-out
// records per building.
func testPortfolio(t *testing.T) (*portfolio.Portfolio, map[string][]dataset.Record) {
	t.Helper()
	params := simulate.MicrosoftLike(2, 40, 9)
	params.FloorsMin, params.FloorsMax = 3, 4
	corpus, err := simulate.Generate(params)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	p := portfolio.New(cfg)
	tests := make(map[string][]dataset.Record)
	for i := range corpus.Buildings {
		b := &corpus.Buildings[i]
		rng := rand.New(rand.NewSource(int64(i) + 1))
		train, test, err := dataset.Split(b, 0.7, rng)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		dataset.SelectLabels(train, 4, rng)
		if err := p.AddBuilding(b.Name, train); err != nil {
			t.Fatalf("AddBuilding: %v", err)
		}
		tests[b.Name] = test
	}
	return p, tests
}

// testServer spins up a handler over a two-building portfolio and returns
// held-out records per building.
func testServer(t *testing.T) (*httptest.Server, map[string][]dataset.Record) {
	t.Helper()
	p, tests := testPortfolio(t)
	srv := httptest.NewServer(NewHandler(p, p, Options{}))
	t.Cleanup(srv.Close)
	return srv, tests
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// getStats fetches /v2/stats.
func getStats(t *testing.T, baseURL string) StatsResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/v2/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return sr
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/v2/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Status    string `json:"status"`
		Buildings int    `json:"buildings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
	if body.Status != "ok" || body.Buildings != 2 {
		t.Errorf("body = %+v, want ok with 2 buildings", body)
	}
}

// TestHealthzNotReady: a portfolio with no trained buildings must answer
// 503 so load balancers don't route scans to cold instances.
func TestHealthzNotReady(t *testing.T) {
	p := portfolio.New(core.Config{})
	srv := httptest.NewServer(NewHandler(p, p, Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v2/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
}

// TestHealthzReplication: with Options.Repl wired, /v2/healthz gates
// readiness on the replication state (a lagging or stale follower must
// answer 503 "lagging" so load balancers stop routing reads to it) and
// /v2/stats embeds the report.
func TestHealthzReplication(t *testing.T) {
	p, _ := testPortfolio(t)
	cases := []struct {
		name       string
		repl       ReplInfo
		wantStatus int
		wantState  string
	}{
		{
			name:       "caught-up follower",
			repl:       ReplInfo{Role: "follower", Ready: true, LagBytes: 12},
			wantStatus: http.StatusOK,
			wantState:  "ok",
		},
		{
			name:       "lagging follower",
			repl:       ReplInfo{Role: "follower", Ready: false, LagBytes: 5 << 20},
			wantStatus: http.StatusServiceUnavailable,
			wantState:  "lagging",
		},
		{
			name:       "primary always ready",
			repl:       ReplInfo{Role: "primary", Ready: true},
			wantStatus: http.StatusOK,
			wantState:  "ok",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ri := tc.repl
			srv := httptest.NewServer(NewHandler(p, p, Options{Repl: func() ReplInfo { return ri }}))
			defer srv.Close()

			resp, err := http.Get(srv.URL + "/v2/healthz")
			if err != nil {
				t.Fatalf("GET: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("healthz status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var body struct {
				Status      string    `json:"status"`
				Replication *ReplInfo `json:"replication"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if body.Status != tc.wantState {
				t.Fatalf("healthz state = %q, want %q", body.Status, tc.wantState)
			}
			if body.Replication == nil || body.Replication.Role != tc.repl.Role || body.Replication.LagBytes != tc.repl.LagBytes {
				t.Fatalf("healthz replication = %+v, want role %q lag %d", body.Replication, tc.repl.Role, tc.repl.LagBytes)
			}

			// /v2/stats carries the same report.
			sResp, err := http.Get(srv.URL + "/v2/stats")
			if err != nil {
				t.Fatalf("GET stats: %v", err)
			}
			defer sResp.Body.Close()
			var stats StatsResponse
			if err := json.NewDecoder(sResp.Body).Decode(&stats); err != nil {
				t.Fatalf("decode stats: %v", err)
			}
			if stats.Replication == nil || stats.Replication.Role != tc.repl.Role || stats.Replication.Ready != tc.repl.Ready {
				t.Fatalf("stats replication = %+v, want %+v", stats.Replication, tc.repl)
			}
		})
	}

	// Without Options.Repl the report is absent entirely — the standalone
	// daemon's wire shape is unchanged.
	srv := httptest.NewServer(NewHandler(p, p, Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v2/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, ok := raw["replication"]; ok {
		t.Fatal("standalone healthz should not report replication")
	}
}

// TestBuildings: /v2/stats lists every trained building by name.
func TestBuildings(t *testing.T) {
	srv, tests := testServer(t)
	sr := getStats(t, srv.URL)
	if len(sr.PerBuilding) != len(tests) {
		t.Errorf("buildings = %+v, want %d entries", sr.PerBuilding, len(tests))
	}
	for _, b := range sr.PerBuilding {
		if _, ok := tests[b.Building]; !ok {
			t.Errorf("stats lists unknown building %q", b.Building)
		}
	}
}

// TestPredictRouted: a bare scan with no options is routed to its own
// building, echoes its ID, reports a positive MAC overlap and answers
// with the winning floor only.
func TestPredictRouted(t *testing.T) {
	srv, tests := testServer(t)
	for name, pool := range tests {
		rec := pool[0]
		resp := postJSON(t, srv.URL+"/v2/classify", rec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		cr := decodeClassify(t, resp)
		if cr.Building != name {
			t.Errorf("building = %q, want %q", cr.Building, name)
		}
		if cr.ID != rec.ID {
			t.Errorf("id = %q, want %q", cr.ID, rec.ID)
		}
		if cr.Overlap <= 0 {
			t.Errorf("overlap = %v, want > 0", cr.Overlap)
		}
		if len(cr.Candidates) != 1 || cr.Candidates[0].Floor != cr.Floor {
			t.Errorf("candidates = %+v, want the winning floor %d only", cr.Candidates, cr.Floor)
		}
		if cr.Absorbed {
			t.Error("read-only classify reported absorbed")
		}
	}
}

// TestPredictBatchEndpoint: a batch with no query options answers every
// scan in request order, routes each to its own building, and carries an
// alien scan's error inline without failing the rest.
func TestPredictBatchEndpoint(t *testing.T) {
	srv, tests := testServer(t)
	var recs []dataset.Record
	want := map[string]string{} // scan ID -> building
	for name, pool := range tests {
		for _, rec := range pool[:3] {
			recs = append(recs, rec)
			want[rec.ID] = name
		}
	}
	recs = append(recs, dataset.Record{ID: "alien", Readings: []dataset.Reading{
		{MAC: "ff:ff:ff:ff:ff:01", RSS: -50},
	}})
	resp := postJSON(t, srv.URL+"/v2/classify/batch", recs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	items := readNDJSON(t, resp)
	if len(items) != len(recs) {
		t.Fatalf("items = %d, want %d", len(items), len(recs))
	}
	for i, item := range items {
		if item.ID != recs[i].ID {
			t.Errorf("item %d id = %q, want %q (order must be preserved)", i, item.ID, recs[i].ID)
		}
		building, ok := want[item.ID]
		if !ok {
			if item.Error == "" || item.Result != nil {
				t.Errorf("alien scan: error=%q result=%v, want inline error only", item.Error, item.Result)
			}
			continue
		}
		if item.Error != "" || item.Result == nil {
			t.Errorf("scan %q: error=%q result=%v", item.ID, item.Error, item.Result)
			continue
		}
		if item.Result.Building != building {
			t.Errorf("scan %q routed to %q, want %q", item.ID, item.Result.Building, building)
		}
		if item.Result.ID != item.ID {
			t.Errorf("scan %q: result id = %q", item.ID, item.Result.ID)
		}
		if len(item.Result.Candidates) != 1 || item.Result.Absorbed {
			t.Errorf("scan %q: candidates=%d absorbed=%v, want the winner only, not absorbed",
				item.ID, len(item.Result.Candidates), item.Result.Absorbed)
		}
	}
}

// TestPredictBatchBadRequests: an absorbing batch whose body does not
// decode is refused with 400 before any scan is absorbed.
func TestPredictBatchBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	before := getStats(t, srv.URL)
	for _, tt := range []struct {
		name string
		body string
		want int
	}{
		{"empty batch", `[]`, http.StatusBadRequest},
		{"invalid json", `[{`, http.StatusBadRequest},
	} {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v2/classify/batch?absorb=true", "application/json", strings.NewReader(tt.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tt.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tt.want)
			}
		})
	}
	if after := getStats(t, srv.URL); after.Records != before.Records {
		t.Errorf("records %d -> %d, want unchanged", before.Records, after.Records)
	}
}

func TestPredictAlienScan(t *testing.T) {
	srv, _ := testServer(t)
	alien := dataset.Record{ID: "alien", Readings: []dataset.Reading{
		{MAC: "ff:ff:ff:ff:ff:01", RSS: -50},
	}}
	resp := postJSON(t, srv.URL+"/v2/classify", alien)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if er.Error == "" {
		t.Error("empty error message")
	}
}

// TestPredictBadRequests: the absorb route decodes a scan like the
// classify route — malformed JSON, an empty scan or an unknown field is
// a 400 — and absorbs nothing. The third body's readings are valid, so
// only the unknown-field rule stands between it and the graph.
func TestPredictBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	before := getStats(t, srv.URL)
	for _, tt := range []struct {
		name string
		body string
		want int
	}{
		{"invalid json", "{not json", http.StatusBadRequest},
		{"empty readings", `{"id":"x","readings":[]}`, http.StatusBadRequest},
		{"unknown field", `{"id":"x","bogus":1,"readings":[{"mac":"m","rss":-50}]}`, http.StatusBadRequest},
	} {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v2/absorb", "application/json", strings.NewReader(tt.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tt.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tt.want)
			}
		})
	}
	if after := getStats(t, srv.URL); after.Records != before.Records {
		t.Errorf("records %d -> %d, want unchanged", before.Records, after.Records)
	}
}

// TestPredictBadWeight: a reading whose RSS the weight function maps to
// a non-positive edge weight is the client's error on both routes, a 400
// rather than a 500 (which a router would retry elsewhere and count
// against the node's breaker), even when only an unknown MAC carries it,
// and nothing is absorbed.
func TestPredictBadWeight(t *testing.T) {
	srv, tests := testServer(t)
	var known string
	for _, recs := range tests {
		known = recs[0].Readings[0].MAC
		break
	}
	before := getStats(t, srv.URL)
	for _, tt := range []struct {
		name, route string
		readings    []dataset.Reading
	}{
		{"classify", "/v2/classify", []dataset.Reading{{MAC: known, RSS: -130}}},
		{"absorb", "/v2/absorb", []dataset.Reading{{MAC: known, RSS: -130}}},
		{"unknown MAC", "/v2/classify", []dataset.Reading{{MAC: known, RSS: -60}, {MAC: "ff:ff:ff:ff:ff:02", RSS: -500}}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+tt.route, dataset.Record{ID: "weak", Readings: tt.readings})
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
	after := getStats(t, srv.URL)
	if after.Records != before.Records || after.MACs != before.MACs || after.Edges != before.Edges {
		t.Errorf("stats %d/%d/%d -> %d/%d/%d, want unchanged",
			before.Records, before.MACs, before.Edges, after.Records, after.MACs, after.Edges)
	}
}

func TestMethodRouting(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/v2/classify")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/classify status = %d, want 405", resp.StatusCode)
	}
}
