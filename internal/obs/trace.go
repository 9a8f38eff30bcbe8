// Lightweight request tracing. A Trace is minted per request at the
// first instrumented handler it touches, carried through the request's
// context.Context, and propagated across fleet hops (router → primary,
// router → follower) via the X-Grafics-Trace header, so one client
// request correlates across every node it fans out to. Spans are coarse
// named timings (journal, forward, classify) attached along the way and
// emitted with the structured request log — not a distributed tracing
// system, just enough to answer "where did this request spend its time".

package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries the trace ID across fleet hops; it rides next to
// the X-Grafics-Epoch/-Seg/-Off replication headers.
const TraceHeader = "X-Grafics-Trace"

// Span is one named timing attached to a trace.
type Span struct {
	Name string
	Dur  time.Duration
}

// Trace is the per-request trace: an ID and the spans recorded under it.
type Trace struct {
	// ID is the trace identifier. The first 16 hex digits identify the
	// minting process, the rest the request, so a fleet log line reveals
	// which node a request entered through.
	ID string

	mu sync.Mutex
	// grafics:guardedby mu
	spans []Span
}

// NewTrace mints a trace with a fresh ID.
func NewTrace() *Trace { return &Trace{ID: newTraceID()} }

// AdoptTrace returns a trace for an incoming header value: the remote ID
// if it is well-formed (remote=true), a freshly minted one otherwise.
func AdoptTrace(id string) (t *Trace, remote bool) {
	if validTraceID(id) {
		return &Trace{ID: id}, true
	}
	return NewTrace(), false
}

// AddSpan attaches one named timing to the trace. Safe for concurrent
// use; a nil trace is a no-op so call sites need no guard.
func (t *Trace) AddSpan(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Dur: d})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	return out
}

// SpanString renders the spans as "name=dur name=dur" for a log
// attribute; empty when no span was recorded.
func (t *Trace) SpanString() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name)
		b.WriteByte('=')
		b.WriteString(s.Dur.String())
	}
	return b.String()
}

// traceIDBase is the random per-process prefix of minted IDs;
// traceIDSeq distinguishes requests within the process.
var (
	traceIDBase [2]uint64
	traceIDSeq  atomic.Uint64
)

func init() {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; trace IDs
		// only need uniqueness, so fall back to the clock.
		binary.BigEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
		binary.BigEndian.PutUint64(b[8:], uint64(time.Now().UnixNano())^0x9E3779B97F4A7C15)
	}
	traceIDBase[0] = binary.BigEndian.Uint64(b[:8])
	traceIDBase[1] = binary.BigEndian.Uint64(b[8:])
}

// newTraceID returns 32 hex digits: the process prefix, then a
// splitmix-scrambled sequence number.
func newTraceID() string {
	x := traceIDBase[1] + traceIDSeq.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], traceIDBase[0])
	binary.BigEndian.PutUint64(b[8:], x)
	return hex.EncodeToString(b[:])
}

// validTraceID accepts 1–64 characters of [0-9a-zA-Z_-]: hex IDs minted
// here plus reasonable foreign formats, nothing that needs escaping in
// logs or headers.
func validTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c == '_' || c == '-' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

// traceKey is the context key carrying the request's *Trace.
type traceKey struct{}

// WithTrace returns a context carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil when the request was
// never instrumented (internal callers, tests).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// TraceID returns the context's trace ID, or "" when there is none.
func TraceID(ctx context.Context) string {
	if t := TraceFrom(ctx); t != nil {
		return t.ID
	}
	return ""
}

// StartSpan starts a named span on the context's trace and returns the
// closer that records it. With no trace on the context the closer is a
// no-op, so instrumented code paths need no conditional.
func StartSpan(ctx context.Context, name string) func() {
	t := TraceFrom(ctx)
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.AddSpan(name, time.Since(start)) }
}

// logger overrides the request-log destination; nil means
// slog.Default(). Tests install a capturing handler via SetLogger.
var logger atomic.Pointer[slog.Logger]

// SetLogger replaces the logger the instrumented HTTP surface writes
// request logs to. Passing nil restores slog.Default().
func SetLogger(l *slog.Logger) { logger.Store(l) }

// Logger returns the current request-log destination.
func Logger() *slog.Logger {
	if l := logger.Load(); l != nil {
		return l
	}
	return slog.Default()
}

// MaxStages bounds the stages a StageClock can track.
const MaxStages = 8

// StageClock is a preallocated, allocation-free recorder of consecutive
// stage durations inside one operation — built for the classify hot
// path, where it lives in the pooled workspace and must not add a
// single allocation (the hotpathalloc analyzer checks Start and Mark).
// Start begins the clock; each Mark(stage) charges the time since the
// previous mark to that stage. The zero value is ready to use.
type StageClock struct {
	last time.Time
	d    [MaxStages]time.Duration
}

// Start resets the accumulated stages and begins timing.
//
//grafics:hotpath
func (c *StageClock) Start() {
	for i := range c.d {
		c.d[i] = 0
	}
	c.last = time.Now()
}

// Mark charges the time since Start or the previous Mark to stage.
//
//grafics:hotpath
func (c *StageClock) Mark(stage int) {
	now := time.Now()
	c.d[stage] += now.Sub(c.last)
	c.last = now
}

// Stage returns the duration accumulated against stage.
func (c *StageClock) Stage(stage int) time.Duration { return c.d[stage] }

// Seconds returns Stage in seconds, the unit histograms observe.
//
//grafics:hotpath
func (c *StageClock) Seconds(stage int) float64 { return c.d[stage].Seconds() }
