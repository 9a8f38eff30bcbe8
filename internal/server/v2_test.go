package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
)

func decodeClassify(t *testing.T, resp *http.Response) ClassifyResponse {
	t.Helper()
	var cr ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decode classify response: %v", err)
	}
	return cr
}

func TestV2Classify(t *testing.T) {
	srv, tests := testServer(t)
	for name, pool := range tests {
		rec := pool[0]
		resp := postJSON(t, srv.URL+"/v2/classify", ClassifyRequest{
			ID: rec.ID, Readings: rec.Readings, TopK: -1,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		cr := decodeClassify(t, resp)
		if cr.Building != name {
			t.Errorf("building = %q, want %q", cr.Building, name)
		}
		if cr.Confidence <= 0 || cr.Confidence > 1 {
			t.Errorf("confidence %v outside (0,1]", cr.Confidence)
		}
		if len(cr.Candidates) < 2 {
			t.Fatalf("candidates = %d, want every distinct floor", len(cr.Candidates))
		}
		for i := 1; i < len(cr.Candidates); i++ {
			if cr.Candidates[i].Confidence > cr.Candidates[i-1].Confidence {
				t.Errorf("candidates not sorted by descending confidence at %d", i)
			}
		}
		if cr.Candidates[0].Floor != cr.Floor {
			t.Errorf("top candidate floor %d != floor %d", cr.Candidates[0].Floor, cr.Floor)
		}
		if cr.Absorbed {
			t.Error("read-only classify reported absorbed")
		}
	}
}

// TestV2ClassifyAcceptsRecordShape: a scan file produced by datagen or
// json.Marshal of a dataset.Record carries floor/labeled fields; the v2
// single-scan routes must accept (and ignore) them rather than 400.
func TestV2ClassifyAcceptsRecordShape(t *testing.T) {
	srv, tests := testServer(t)
	for _, pool := range tests {
		rec := pool[0] // full Record, floor field included
		resp := postJSON(t, srv.URL+"/v2/classify", rec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200 for dataset.Record-shaped body", resp.StatusCode)
		}
		cr := decodeClassify(t, resp)
		if cr.ID != rec.ID {
			t.Errorf("id = %q, want %q", cr.ID, rec.ID)
		}
		break
	}
}

func TestV2ClassifyBadRequests(t *testing.T) {
	srv, _ := testServer(t)
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
			resp, err := http.Post(srv.URL+"/v2/classify", "application/json", strings.NewReader(tt.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tt.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tt.want)
			}
		})
	}
}

// TestV2Absorb checks that the absorb route grows the building's graph
// and reports the write back to the caller.
func TestV2Absorb(t *testing.T) {
	srv, tests := testServer(t)
	var rec dataset.Record
	for _, pool := range tests {
		rec = pool[0]
		break
	}
	before := getStats(t, srv.URL)
	readings := append(append([]dataset.Reading(nil), rec.Readings...),
		dataset.Reading{MAC: "v2-new-ap", RSS: -61})
	resp := postJSON(t, srv.URL+"/v2/absorb", ClassifyRequest{ID: rec.ID, Readings: readings})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if cr := decodeClassify(t, resp); !cr.Absorbed {
		t.Error("absorb route did not report absorbed")
	}
	after := getStats(t, srv.URL)
	if after.Records != before.Records+1 {
		t.Errorf("records %d -> %d, want +1", before.Records, after.Records)
	}
	if after.MACs != before.MACs+1 {
		t.Errorf("MACs %d -> %d, want +1", before.MACs, after.MACs)
	}
	// The new AP is now attributable: delete it again fleet-wide.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/macs/v2-new-ap", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("DELETE status = %d, want 200", dresp.StatusCode)
	}
}

func TestV2DeleteUnknownMAC(t *testing.T) {
	srv, _ := testServer(t)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/macs/no-such-ap", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// retireErrRouter refuses every MAC retirement with err.
type retireErrRouter struct {
	blockingRouter
	err error
}

func (r *retireErrRouter) RemoveMAC(context.Context, string) (int, error) { return 0, r.err }

// TestV2DeleteMACMapsErrors: DELETE /v2/macs/{mac} answers a Router's
// error as every write route does, not with a bare 500: a follower's
// ErrReadOnly is 421, a degraded journal is 503 with its Retry-After, a
// peer's answer keeps its own status and Retry-After, and an unknown MAC
// stays 404.
func TestV2DeleteMACMapsErrors(t *testing.T) {
	for _, tc := range []struct {
		name       string
		err        error
		want       int
		retryAfter string
	}{
		{"read-only", fmt.Errorf("%w (primary: http://p)", ErrReadOnly), http.StatusMisdirectedRequest, ""},
		{"degraded", &lifecycle.DegradedError{RetryAfter: 5 * time.Second}, http.StatusServiceUnavailable, "5"},
		{"peer answer", &StatusError{Status: http.StatusTooManyRequests, RetryAfter: "7", Msg: "shed"}, http.StatusTooManyRequests, "7"},
		{"unknown MAC", fmt.Errorf("%w: %q", portfolio.ErrUnknownMAC, "m"), http.StatusNotFound, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(NewHandler(portfolio.New(core.Config{}), &retireErrRouter{err: tc.err}, Options{}))
			defer srv.Close()
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/macs/m", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("DELETE: %v", err)
			}
			defer resp.Body.Close()
			var body errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if resp.StatusCode != tc.want || resp.Header.Get("Retry-After") != tc.retryAfter || body.Error != tc.err.Error() {
				t.Errorf("status %d, Retry-After %q, error %q; want %d, %q, %q",
					resp.StatusCode, resp.Header.Get("Retry-After"), body.Error, tc.want, tc.retryAfter, tc.err.Error())
			}
		})
	}
}

func TestV2Stats(t *testing.T) {
	srv, _ := testServer(t)
	sr := getStats(t, srv.URL)
	if sr.Buildings != 2 || len(sr.PerBuilding) != 2 {
		t.Fatalf("buildings = %d/%d, want 2", sr.Buildings, len(sr.PerBuilding))
	}
	if sr.Records == 0 || sr.MACs == 0 || sr.Edges == 0 {
		t.Errorf("empty totals: %+v", sr)
	}
}

// readNDJSON parses a streamed batch reply into items.
func readNDJSON(t *testing.T, resp *http.Response) []StreamItem {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var items []StreamItem
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var item StreamItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		items = append(items, item)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return items
}

func TestV2ClassifyBatchArrayBody(t *testing.T) {
	srv, tests := testServer(t)
	var recs []dataset.Record
	want := map[string]string{}
	for name, pool := range tests {
		for _, rec := range pool[:3] {
			recs = append(recs, rec)
			want[rec.ID] = name
		}
	}
	recs = append(recs, dataset.Record{ID: "alien", Readings: []dataset.Reading{
		{MAC: "ff:ff:ff:ff:ff:01", RSS: -50},
	}})
	resp := postJSON(t, srv.URL+"/v2/classify/batch?top_k=2", recs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	items := readNDJSON(t, resp)
	if len(items) != len(recs) {
		t.Fatalf("items = %d, want %d", len(items), len(recs))
	}
	for i, item := range items {
		if item.ID != recs[i].ID {
			t.Errorf("item %d id = %q, want %q (order preserved)", i, item.ID, recs[i].ID)
		}
		if building, ok := want[item.ID]; ok {
			if item.Error != "" || item.Result == nil {
				t.Errorf("scan %q: error=%q result=%v", item.ID, item.Error, item.Result)
				continue
			}
			if item.Result.Building != building {
				t.Errorf("scan %q routed to %q, want %q", item.ID, item.Result.Building, building)
			}
			if len(item.Result.Candidates) != 2 {
				t.Errorf("scan %q candidates = %d, want 2 (top_k=2)", item.ID, len(item.Result.Candidates))
			}
		} else if item.Error == "" || item.Result != nil {
			t.Errorf("alien scan: error=%q result=%v, want inline error only", item.Error, item.Result)
		}
	}
}

func TestV2ClassifyBatchNDJSONBody(t *testing.T) {
	srv, tests := testServer(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	n := 0
	for _, pool := range tests {
		for _, rec := range pool[:4] {
			if err := enc.Encode(rec); err != nil {
				t.Fatalf("encode: %v", err)
			}
			n++
		}
	}
	resp, err := http.Post(srv.URL+"/v2/classify/batch", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	items := readNDJSON(t, resp)
	if len(items) != n {
		t.Fatalf("items = %d, want %d", len(items), n)
	}
	for _, item := range items {
		if item.Error != "" || item.Result == nil {
			t.Errorf("scan %q: error=%q", item.ID, item.Error)
		}
	}
}

func TestV2ClassifyBatchBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	for _, tt := range []struct {
		name string
		body string
		want int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"empty array", `[]`, http.StatusBadRequest},
		{"invalid json", `[{`, http.StatusBadRequest},
		{"bad top_k", `[]`, http.StatusBadRequest},
	} {
		t.Run(tt.name, func(t *testing.T) {
			url := srv.URL + "/v2/classify/batch"
			if tt.name == "bad top_k" {
				url += "?top_k=abc"
			}
			resp, err := http.Post(url, "application/json", strings.NewReader(tt.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tt.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tt.want)
			}
		})
	}
	t.Run("per-scan options", func(t *testing.T) {
		// A scan carrying its own top_k/absorb is rejected before any
		// classification: silently stripping an absorb=true would turn
		// an intended write into a read.
		body := `{"id":"x","absorb":true,"readings":[{"mac":"aa:bb:cc:dd:ee:01","rss":-60}]}`
		resp, err := http.Post(srv.URL+"/v2/classify/batch", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("bad absorb", func(t *testing.T) {
		// A malformed absorb value must 400, not silently classify
		// read-only when the caller asked for a write.
		resp, err := http.Post(srv.URL+"/v2/classify/batch?absorb=yes", "application/json", strings.NewReader(`[]`))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		// One scan whose id alone blows the 32 MB body cap: the limit
		// trips mid-decode and must surface as 413.
		body := `{"id":"` + strings.Repeat("A", 33<<20) + `"`
		resp, err := http.Post(srv.URL+"/v2/classify/batch", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413", resp.StatusCode)
		}
	})
}

// disconnectingWriter stands in for a client that goes away mid-stream:
// after `after` written lines it cancels the request context, as net/http
// does when the peer closes the connection. Subsequent writes are counted
// so the test can assert the handler stopped streaming.
type disconnectingWriter struct {
	mu     sync.Mutex
	header http.Header
	lines  int
	after  int
	cancel context.CancelFunc
}

func (d *disconnectingWriter) Header() http.Header {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.header == nil {
		d.header = make(http.Header)
	}
	return d.header
}

func (d *disconnectingWriter) WriteHeader(int) {}

func (d *disconnectingWriter) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lines += bytes.Count(p, []byte("\n"))
	if d.lines >= d.after {
		d.cancel()
	}
	return len(p), nil
}

func (d *disconnectingWriter) Lines() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lines
}

// TestV2BatchStreamStopsOnDisconnect verifies the cancellation contract
// of the NDJSON route: once the client disconnects (request context
// cancelled), the in-flight stream stops writing instead of classifying
// and serializing the rest of the batch.
func TestV2BatchStreamStopsOnDisconnect(t *testing.T) {
	p, tests := testPortfolio(t)
	h := NewHandler(p, p, Options{})
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	total := 0
	for total < 8*ndjsonChunkSize {
		for _, pool := range tests {
			for i := range pool {
				rec := pool[i]
				rec.ID = fmt.Sprintf("%s-copy-%d", rec.ID, total)
				if err := enc.Encode(rec); err != nil {
					t.Fatalf("encode: %v", err)
				}
				total++
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &disconnectingWriter{after: 1, cancel: cancel}
	req := httptest.NewRequest(http.MethodPost, "/v2/classify/batch", &body).WithContext(ctx)
	h.ServeHTTP(w, req) // returns only when the handler has given up
	// The disconnect lands during the first chunk, so the handler may
	// finish writing that chunk but must not start another.
	if w.Lines() > 2*ndjsonChunkSize {
		t.Errorf("handler wrote %d lines after disconnect at line 1 (total %d)", w.Lines(), total)
	}
	if w.Lines() >= total {
		t.Errorf("handler streamed the whole batch (%d lines) despite disconnect", w.Lines())
	}
}

// TestV2BatchAlreadyCancelled: a batch arriving with a dead context (e.g.
// deadline already blown in a proxy) must not classify anything.
func TestV2BatchAlreadyCancelled(t *testing.T) {
	p, tests := testPortfolio(t)
	h := NewHandler(p, p, Options{})
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, pool := range tests {
		for i := range pool {
			if err := enc.Encode(pool[i]); err != nil {
				t.Fatalf("encode: %v", err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v2/classify/batch", &body).WithContext(ctx)
	h.ServeHTTP(w, req)
	// Nothing was streamed, so the cancellation surfaces as a real error
	// status (not an empty 200 masquerading as success) with no result
	// lines.
	if w.Code != statusClientClosedRequest {
		t.Errorf("status = %d, want %d", w.Code, statusClientClosedRequest)
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Errorf("body = %.120q, want a single error object", w.Body.String())
	}
}

// TestV2StatsEveryMACRetired: a building whose every MAC is retired
// still reports its statistics, with no MACs and no edges left.
func TestV2StatsEveryMACRetired(t *testing.T) {
	p, _ := testPortfolio(t)
	srv := httptest.NewServer(NewHandler(p, p, Options{}))
	t.Cleanup(srv.Close)
	name := p.Buildings()[0]
	sys, err := p.System(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, mac := range sys.MACs() {
		if _, err := p.RemoveMAC(context.Background(), mac); err != nil {
			t.Fatalf("RemoveMAC(%s): %v", mac, err)
		}
	}
	resp, err := http.Get(srv.URL + "/v2/stats")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d, want 200", resp.StatusCode)
	}
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	found := false
	for _, b := range sr.PerBuilding {
		if b.Building != name {
			continue
		}
		found = true
		if b.MACs != 0 || b.Edges != 0 || b.Records == 0 {
			t.Errorf("stats of %q after retiring every MAC: %+v, want its records with 0 macs and 0 edges", name, b)
		}
	}
	if !found {
		t.Fatalf("building %q missing from stats", name)
	}
}
