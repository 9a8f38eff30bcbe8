package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

type opKind uint8

const (
	opRead opKind = iota
	opAbsorb
)

// sample is the record of one request. Times are nanoseconds since the
// phase start: due is when the schedule released it, dispatched when the
// generator handed it to the senders, sent when a sender began the HTTP
// call, done when the reply was read.
type sample struct {
	due, dispatched, sent, done int64
	kind                        opKind
	traced                      bool
	ok                          bool // 200 with a parseable reply
	absorbed                    bool // absorbs: the reply said "absorbed":true
	building                    int  // predicted building, -1 if unknown
	floor                       int
	// id numbers the request within the run: it picks the query, and it
	// suffixes absorb IDs and trace IDs so neither ever repeats.
	id int
}

// latency is the time from due to reply, in milliseconds: a request held
// back by a stall is charged for the wait.
func (s *sample) latency() float64 { return float64(s.done-s.due) / 1e6 }

// queueWait is due→sent: the time a due request waited for the
// generator and then for a free sender.
func (s *sample) queueWait() float64 { return float64(s.sent-s.due) / 1e6 }

// lateness is due→dispatched: how late the generator itself released the
// request. The generator never waits for a sender, so this is scheduler
// delay alone; it must stay far below the latencies it would distort.
func (s *sample) lateness() float64 { return float64(s.dispatched-s.due) / 1e6 }

// reply is the part of a /v2/classify response the benchmark checks.
type reply struct {
	Building string `json:"building"`
	Floor    int    `json:"floor"`
	Absorbed bool   `json:"absorbed"`
}

// driver sends requests to one entry point from at most nproc sender
// goroutines over at most nproc connections, so the load generator never
// takes more threads or sockets than the machine has cores.
type driver struct {
	in      *inputs
	base    string
	senders int
	hc      *http.Client
	tr      *tracer // nil: never send a trace ID
	// next is the id of the run's next request; only the generator
	// touches it.
	next int
}

func newDriver(in *inputs, base string, tr *tracer) *driver {
	n := runtime.NumCPU()
	return &driver{
		in:      in,
		base:    base,
		senders: n,
		tr:      tr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			MaxIdleConns:        n,
			DisableCompression:  true,
		}},
	}
}

func (d *driver) close() { d.hc.CloseIdleConnections() }

// schedule is one phase's request plan.
type schedule struct {
	rate   float64 // requests/s; 0 runs closed-loop
	n      int     // requests in the phase
	absorb func(i int) bool
	// traced selects the requests that carry a trace ID (nil: none).
	traced func(i int) bool
	// senders caps the sender goroutines (0: the driver's nproc).
	senders int
}

// open plans an open-loop phase of dur at rate with every absorbEvery-th
// request an absorb.
func open(rate float64, dur time.Duration, absorbEvery int) schedule {
	n := int(rate * dur.Seconds())
	return schedule{rate: rate, n: max(n, 1), absorb: everyNth(absorbEvery)}
}

func everyNth(k int) func(int) bool {
	return func(i int) bool { return k > 0 && i%k == k-1 }
}

// run executes one phase starting at start and returns its samples in
// schedule order. Open-loop requests are released at start + i/rate
// whether or not earlier ones have completed; closed-loop requests are
// sent as fast as senders free up and timed from when they were sent.
func (d *driver) run(ctx context.Context, sc schedule, start time.Time) ([]sample, error) {
	// One pacer for the phase: the generator allocates nothing per
	// request, so it does not feed the collector it is measuring.
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pace.close()
	samples := make([]sample, sc.n)
	// Sized to the phase so the generator never blocks on busy senders:
	// backlog shows up as queue wait, not as a late schedule.
	work := make(chan int, sc.n)
	senders := d.senders
	if sc.senders > 0 {
		senders = min(sc.senders, senders)
	}
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			buf := make([]byte, 0, 1024)
			for i := range work {
				d.send(ctx, start, &samples[i], &body, &buf, sc.rate == 0)
			}
		}()
	}
	for i := range samples {
		s := &samples[i]
		s.id = d.next
		d.next++
		s.kind = opRead
		if sc.absorb != nil && sc.absorb(i) {
			s.kind = opAbsorb
		}
		s.traced = d.tr != nil && sc.traced != nil && sc.traced(i)
		if sc.rate > 0 {
			s.due = int64(float64(i) / sc.rate * 1e9)
			if wait := time.Until(start.Add(time.Duration(s.due))); wait > 0 {
				if err = pace.sleep(wait); err != nil {
					break
				}
			}
		}
		s.dispatched = int64(time.Since(start))
		if ctx.Err() != nil {
			s.done = s.dispatched
			continue
		}
		work <- i
	}
	close(work)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// send performs one request and fills in its sample.
func (d *driver) send(ctx context.Context, start time.Time, s *sample, body *bytes.Buffer, buf *[]byte, closed bool) {
	s.sent = int64(time.Since(start))
	if closed {
		s.due, s.dispatched = s.sent, s.sent
	}
	s.building = -1
	q := &d.in.queries[s.id%len(d.in.queries)]
	payload := q.readBody
	path := "/v2/classify"
	if s.kind == opAbsorb {
		*buf = q.body((*buf)[:0], s.id)
		payload = *buf
		path = "/v2/absorb"
	}
	var trace string
	var t0 int64
	if s.traced {
		trace = traceID(s.id)
		t0 = d.tr.now()
	}
	r, err := d.post(ctx, path, payload, trace, body)
	s.done = int64(time.Since(start))
	if s.traced {
		d.tr.record(span{Trace: trace, ID: d.tr.next.Add(1), Name: spanClient, Start: t0, End: d.tr.now()})
	}
	if err != nil {
		return
	}
	s.ok = true
	s.absorbed = r.Absorbed
	s.floor = r.Floor
	if b, ok := d.in.index[r.Building]; ok {
		s.building = b
	}
}

// post sends one POST and decodes the reply; any status but 200 is an
// error.
func (d *driver) post(ctx context.Context, path string, payload []byte, trace string, body *bytes.Buffer) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(payload))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body.Bytes()))
	}
	var r reply
	if err := json.Unmarshal(body.Bytes(), &r); err != nil {
		return reply{}, fmt.Errorf("%s: decode reply: %w", path, err)
	}
	return r, nil
}
