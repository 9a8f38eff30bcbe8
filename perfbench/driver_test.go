package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
)

// stubInputs is one query against a stub server that answers every
// classify after delay.
func stubInputs(t *testing.T, delay time.Duration) (*inputs, string) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Write([]byte(`{"building":"b0","floor":1,"absorbed":true}`))
	}))
	t.Cleanup(srv.Close)
	q, err := newQuery(dataset.Record{ID: "b0/q", Floor: 1, Readings: []dataset.Reading{{MAC: "m", RSS: -60}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &inputs{names: []string{"b0"}, index: map[string]int{"b0": 0}, queries: []query{q}}, srv.URL
}

func mustRun(t *testing.T, d *driver, sc schedule, start time.Time) []sample {
	t.Helper()
	samples, err := d.run(context.Background(), sc, start)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestOpenLoopChargesABusySystemAsQueueWaitNotLateness(t *testing.T) {
	in, url := stubInputs(t, 20*time.Millisecond)
	d := newDriver(in, url, nil)
	defer d.close()
	d.senders = 1
	// 100/s against a 20 ms service time: every request waits behind the
	// one before it, and the wait grows through the phase.
	samples := mustRun(t, d, open(100, 300*time.Millisecond, 0), time.Now())
	last := samples[len(samples)-1]
	if !last.ok || last.building != 0 || last.floor != 1 {
		t.Fatalf("last sample %+v: reply not recorded", last)
	}
	if w := last.queueWait(); w < 100 {
		t.Errorf("last request waited %.1fms for the busy sender, want the ~300ms backlog", w)
	}
	if l := last.lateness(); l > 20 {
		t.Errorf("lateness %.1fms: the generator waited on the busy sender", l)
	}
	if lat := last.latency(); lat < last.queueWait()+20 {
		t.Errorf("latency %.1fms does not include the wait %.1fms plus service", lat, last.queueWait())
	}
}

func TestOpenLoopChargesALateScheduleAsLateness(t *testing.T) {
	in, url := stubInputs(t, 0)
	d := newDriver(in, url, nil)
	defer d.close()
	// A phase whose schedule began 50 ms ago: its first requests are late
	// before any sender is busy, so the delay is the generator's.
	samples := mustRun(t, d, open(100, 100*time.Millisecond, 0), time.Now().Add(-50*time.Millisecond))
	first := samples[0]
	if l := first.lateness(); l < 50 {
		t.Errorf("first request lateness %.1fms, want >= 50ms", l)
	}
	if first.queueWait() < first.lateness() {
		t.Errorf("queue wait %.1fms excludes lateness %.1fms", first.queueWait(), first.lateness())
	}
	if first.latency() < 50 {
		t.Errorf("latency %.1fms is not timed from when the request was due", first.latency())
	}
}

func TestOpenLoopReleasesRequestsOnTime(t *testing.T) {
	in, url := stubInputs(t, 0)
	d := newDriver(in, url, nil)
	defer d.close()
	// At 650/s requests are due every 1.5 ms, between the whole
	// milliseconds an idle runtime timer wakes on; a median lateness near
	// half a millisecond is that rounding.
	samples := mustRun(t, d, open(650, 500*time.Millisecond, 0), time.Now())
	late := make([]float64, len(samples))
	for i := range samples {
		late[i] = samples[i].lateness()
	}
	if p50 := median(late); p50 > 0.25 {
		t.Errorf("median lateness %.3fms: the generator wakes late", p50)
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	in, url := stubInputs(t, 2*time.Millisecond)
	d := newDriver(in, url, nil)
	defer d.close()
	samples := mustRun(t, d, schedule{n: 20, absorb: everyNth(2)}, time.Now())
	for i, s := range samples {
		if !s.ok || s.queueWait() != 0 || s.latency() < 2 {
			t.Errorf("sample %d: %+v", i, s)
		}
		if want := i%2 == 1; (s.kind == opAbsorb) != want || !s.absorbed {
			t.Errorf("sample %d: kind %v absorbed %v", i, s.kind, s.absorbed)
		}
	}
}

func TestQueryBodyGivesAbsorbsUniqueIDs(t *testing.T) {
	q, err := newQuery(dataset.Record{ID: "campus-00/r1", Readings: []dataset.Reading{{MAC: "aa", RSS: -61}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(q.readBody), `{"id":"campus-00/r1","readings":[{"mac":"aa","rss":-61}]}`; got != want {
		t.Errorf("read body %s, want %s", got, want)
	}
	if got, want := string(q.body(nil, 42)), `{"id":"campus-00/r1~42","readings":[{"mac":"aa","rss":-61}]}`; got != want {
		t.Errorf("absorb body %s, want %s", got, want)
	}
}
