package obs

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDMintAndValidate(t *testing.T) {
	a, b := NewTrace(), NewTrace()
	if a.ID == b.ID {
		t.Fatalf("two minted IDs collide: %s", a.ID)
	}
	if len(a.ID) != 32 || !validTraceID(a.ID) {
		t.Fatalf("minted ID %q is not 32 valid chars", a.ID)
	}
	if a.ID[:16] != b.ID[:16] {
		t.Errorf("IDs from one process should share the prefix: %s vs %s", a.ID, b.ID)
	}

	adopted, remote := AdoptTrace("deadbeef")
	if !remote || adopted.ID != "deadbeef" {
		t.Errorf("well-formed remote ID rejected: %v %v", adopted.ID, remote)
	}
	minted, remote := AdoptTrace("bad id\nwith junk")
	if remote || !validTraceID(minted.ID) {
		t.Errorf("malformed remote ID must be replaced, got %q remote=%v", minted.ID, remote)
	}
	if _, remote := AdoptTrace(""); remote {
		t.Error("empty header must mint, not adopt")
	}
	if _, remote := AdoptTrace(strings.Repeat("a", 65)); remote {
		t.Error("oversized ID must be rejected")
	}
}

func TestTraceContextAndSpans(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil || TraceID(ctx) != "" {
		t.Fatal("empty context must carry no trace")
	}
	tr := NewTrace()
	ctx = WithTrace(ctx, tr)
	if TraceFrom(ctx) != tr || TraceID(ctx) != tr.ID {
		t.Fatal("context round-trip lost the trace")
	}

	done := StartSpan(ctx, "work")
	time.Sleep(time.Millisecond)
	done()
	tr.AddSpan("manual", 2*time.Second)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "work" || spans[1].Name != "manual" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Dur <= 0 {
		t.Errorf("span duration not measured: %v", spans[0].Dur)
	}
	if s := tr.SpanString(); !strings.Contains(s, "work=") || !strings.Contains(s, "manual=2s") {
		t.Errorf("SpanString = %q", s)
	}

	// No trace on the context: the closer must be a safe no-op, and nil
	// traces must swallow spans.
	StartSpan(context.Background(), "noop")()
	var nilTrace *Trace
	nilTrace.AddSpan("x", time.Second)
	if nilTrace.Spans() != nil || nilTrace.SpanString() != "" {
		t.Error("nil trace must report no spans")
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.AddSpan("s", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 8000 {
		t.Errorf("spans = %d, want 8000", got)
	}
}

// captureLogs installs a debug-level text logger for the test and
// returns its buffer. The buffer is mutex-guarded because fleet requests
// log from many goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func captureLogs(t *testing.T) *syncBuffer {
	t.Helper()
	buf := &syncBuffer{}
	SetLogger(slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	t.Cleanup(func() { SetLogger(nil) })
	return buf
}

func TestInstrumentHandlerMintsAndPropagates(t *testing.T) {
	logs := captureLogs(t)
	h := InstrumentHandler("GET /test", func(w http.ResponseWriter, r *http.Request) {
		if TraceID(r.Context()) == "" {
			t.Error("handler saw no trace on the context")
		}
		defer StartSpan(r.Context(), "inner")()
		w.WriteHeader(http.StatusTeapot)
	})

	// No incoming header: a trace is minted and echoed.
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/test", nil))
	minted := rec.Header().Get(TraceHeader)
	if minted == "" {
		t.Fatal("no trace ID on the response")
	}
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}

	// Incoming header: adopted verbatim, logged with origin=header.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/test", nil)
	req.Header.Set(TraceHeader, "cafe0123")
	h(rec, req)
	if got := rec.Header().Get(TraceHeader); got != "cafe0123" {
		t.Fatalf("adopted ID = %q, want cafe0123", got)
	}

	out := logs.String()
	if !strings.Contains(out, "trace="+minted) || !strings.Contains(out, "origin=local") {
		t.Errorf("minted request not logged with origin=local:\n%s", out)
	}
	if !strings.Contains(out, "trace=cafe0123") || !strings.Contains(out, "origin=header") {
		t.Errorf("adopted request not logged with origin=header:\n%s", out)
	}
	if !strings.Contains(out, "status=418") || !strings.Contains(out, "route=\"GET /test\"") {
		t.Errorf("status/route missing from request log:\n%s", out)
	}
	if !strings.Contains(out, `spans="inner=`) {
		t.Errorf("span timing missing from request log:\n%s", out)
	}
}

func TestStatusWriterFlushPassthrough(t *testing.T) {
	h := InstrumentHandler("POST /stream", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("instrumented writer lost http.Flusher (breaks NDJSON streaming)")
		}
		w.(http.Flusher).Flush()
	})
	h(httptest.NewRecorder(), httptest.NewRequest("POST", "/stream", nil))
}

func TestStageClock(t *testing.T) {
	var c StageClock
	c.Start()
	time.Sleep(2 * time.Millisecond)
	c.Mark(0)
	time.Sleep(time.Millisecond)
	c.Mark(1)
	if c.Stage(0) < 2*time.Millisecond {
		t.Errorf("stage 0 = %v, want >= 2ms", c.Stage(0))
	}
	if c.Stage(1) < time.Millisecond {
		t.Errorf("stage 1 = %v, want >= 1ms", c.Stage(1))
	}
	if c.Seconds(0) != c.Stage(0).Seconds() {
		t.Error("Seconds disagrees with Stage")
	}
	// Start must zero previous accumulation.
	c.Start()
	c.Mark(0)
	if c.Stage(1) != 0 {
		t.Errorf("Start did not reset stage 1: %v", c.Stage(1))
	}
}

// TestInstrumentHandlerOKAllocs: a 200 counts through the route's
// counter resolved at wrap time, so the middleware allocates only for
// the trace and the wrapped request and writer — not for the status
// label or the family's label key — and it takes no lock.
func TestInstrumentHandlerOKAllocs(t *testing.T) {
	h := InstrumentHandler("GET /alloc", func(http.ResponseWriter, *http.Request) {})
	req := httptest.NewRequest("GET", "/alloc", nil)
	w := discardWriter{h: make(http.Header)}
	before := httpRequests.With("GET /alloc", "200").Load()
	allocs := testing.AllocsPerRun(200, func() { h(w, req) })
	if got := httpRequests.With("GET /alloc", "200").Load() - before; got != 201 {
		t.Errorf("200 counter moved by %d, want 201", got)
	}
	t.Logf("%.0f allocs per request", allocs)
	if allocs > 7 {
		t.Errorf("middleware allocates %.0f per 200, want at most 7", allocs)
	}
}

// discardWriter is a ResponseWriter whose header map is reused, so it
// adds no allocations of its own.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}
