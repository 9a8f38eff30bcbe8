package lifecycle_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/server"
	"repro/internal/wal"
)

// TestBatchAbsorbJournalsEachLine: an absorbing NDJSON batch sent to a
// lifecycle-managed handler journals one WAL record per absorbed line
// and none for a refused one, and a restart replays every record back
// into the building under the name its place in the journal gives it.
func TestBatchAbsorbJournalsEachLine(t *testing.T) {
	dir := t.TempDir()
	train, test := lifecycle.Campus(t, 30, 47)
	m := lifecycle.OpenManaged(t, dir, lifecycle.Policy{}, train)
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	srv := httptest.NewServer(server.NewHandler(m.Portfolio(), m, server.Options{Lifecycle: m}))
	defer srv.Close()

	absorbs := test[:6]
	alien := dataset.Record{ID: "alien", Readings: []dataset.Reading{{MAC: "de:ad:be:ef:00:01", RSS: -50}}}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, rec := range append(slices.Clone(absorbs), alien) {
		if err := enc.Encode(rec); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	resp, err := http.Post(srv.URL+"/v2/classify/batch?absorb=true", "application/x-ndjson", &body)
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for i := 0; i <= len(absorbs); i++ {
		var item server.StreamItem
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("decode line %d: %v", i, err)
		}
		switch {
		case i < len(absorbs) && (item.ID != absorbs[i].ID || item.Result == nil || !item.Result.Absorbed):
			t.Fatalf("line %d: %+v, want %s absorbed", i, item, absorbs[i].ID)
		case i == len(absorbs) && (item.ID != alien.ID || item.Error == ""):
			t.Fatalf("line %d: %+v, want %s refused", i, item, alien.ID)
		}
	}

	var journal []wal.Record
	if _, err := wal.Replay(lifecycle.WALDir(dir), func(r wal.Record) error {
		journal = append(journal, r)
		return nil
	}); err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	var journaled, sent []string
	for _, r := range journal {
		if r.Building != "campus" {
			t.Errorf("journaled %s for %q, want campus", r.Scan.ID, r.Building)
		}
		journaled = append(journaled, r.Scan.ID)
	}
	for _, rec := range absorbs {
		sent = append(sent, rec.ID)
	}
	slices.Sort(journaled)
	slices.Sort(sent)
	if !slices.Equal(journaled, sent) {
		t.Fatalf("journaled %v, want one record per absorbed line %v", journaled, sent)
	}

	// No Snapshot, no Close: simulate a SIGKILL by abandoning the manager.
	// The replay names the records in the order they were journaled.
	m2, err := lifecycle.OpenCtx(context.Background(), lifecycle.FastConfig(), lifecycle.Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer m2.Close()
	if got := m2.Status().Replayed; got != len(absorbs) {
		t.Fatalf("replayed %d records, want %d", got, len(absorbs))
	}
	var want []string
	for i, r := range journal {
		want = append(want, fmt.Sprintf("online-%d-%s", i+1, r.Scan.ID))
	}
	if got := lifecycle.AbsorbedNames(t, m2, "campus"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored absorbs %v, want %v", got, want)
	}
}
