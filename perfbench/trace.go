package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/server"
)

// Span names, one per layer boundary the benchmark can see from outside
// the program.
const (
	spanClient   = "client"             // the HTTP round trip, sender side
	spanRouter   = "router"             // fleet.Router's handler
	spanNode     = "node"               // a node's server.NewHandler surface
	spanLCRead   = "lifecycle.classify" // server.Router call, read
	spanLCAbsorb = "lifecycle.absorb"   // server.Router call, absorb
	tracePrefix  = "pb-"                // trace IDs the benchmark mints
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch.
type span struct {
	Trace  string `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are linked and written out after
// the run. Only requests carrying a trace ID the benchmark minted are
// recorded, so untraced requests in a traced run pay one header lookup.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func traceID(seq int) string { return tracePrefix + strconv.Itoa(seq) }

func mine(id string) bool { return strings.HasPrefix(id, tracePrefix) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanKey carries the enclosing handler span's ID to the server.Router
// wrapper through the request context.
type spanKey struct{}

// handler wraps an http.Handler the benchmark mounts with a span named
// name.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		if !mine(id) {
			h.ServeHTTP(w, r)
			return
		}
		sid := t.next.Add(1)
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sid)))
		t.record(span{Trace: id, ID: sid, Name: name, Start: start, End: t.now()})
	})
}

// tracedRouter is a pass-through server.Router that times each
// classification handed to the lifecycle manager.
type tracedRouter struct {
	server.Router
	t *tracer
}

func (r tracedRouter) ClassifyRouted(ctx context.Context, rec *dataset.Record, opts ...core.Option) (portfolio.Routed, error) {
	id := obs.TraceID(ctx)
	if !mine(id) {
		return r.Router.ClassifyRouted(ctx, rec, opts...)
	}
	name := spanLCRead
	if core.NewRequest(rec, opts...).Absorb() {
		name = spanLCAbsorb
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	sid := r.t.next.Add(1)
	start := r.t.now()
	routed, err := r.Router.ClassifyRouted(ctx, rec, opts...)
	r.t.record(span{Trace: id, ID: sid, Parent: parent, Name: name, Start: start, End: r.t.now()})
	return routed, err
}

// link fills in parents the recording sites could not know: a router
// span is the child of its client span, and a node span the child of the
// router span of its trace when there is one, else of the client span.
// It returns the spans grouped by trace.
func link(spans []span) map[string][]span {
	byTrace := make(map[string][]span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for id, group := range byTrace {
		var client, router uint64
		for _, s := range group {
			switch s.Name {
			case spanClient:
				client = s.ID
			case spanRouter:
				router = s.ID
			}
		}
		for i := range group {
			switch group[i].Name {
			case spanRouter:
				group[i].Parent = client
			case spanNode:
				group[i].Parent = client
				if router != 0 {
					group[i].Parent = router
				}
			}
		}
		byTrace[id] = group
	}
	return byTrace
}

// selfTime returns how much of [start, end) no child interval covers.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		covered += hi - lo
	}
	return end - start - covered
}

// spanStats is what the linked spans of successful requests say about
// each layer, in milliseconds.
type spanStats struct {
	transport, nodeSelf, routerSelf, hops, slowestHop, lcRead, lcAbsorb []float64
}

// analyze derives the per-layer span statistics from linked traces. ok
// maps the trace ID of every successful traced request to its kind;
// other traces are left out. Hop and handler statistics come from reads
// only: a routed absorb adds a locate scatter and a forward.
func analyze(byTrace map[string][]span, ok map[string]opKind) spanStats {
	var st spanStats
	const ms = 1e6
	self := func(s *span, children map[uint64][][2]int64) float64 {
		return float64(selfTime(s.Start, s.End, children[s.ID])) / ms
	}
	for id, group := range byTrace {
		kind, done := ok[id]
		if !done {
			continue
		}
		var client, router *span
		var nodes []*span
		children := make(map[uint64][][2]int64)
		for i := range group {
			s := &group[i]
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			switch s.Name {
			case spanClient:
				client = s
			case spanRouter:
				router = s
			case spanNode:
				nodes = append(nodes, s)
			case spanLCRead:
				if kind == opRead {
					st.lcRead = append(st.lcRead, float64(s.dur())/ms)
				}
			case spanLCAbsorb:
				st.lcAbsorb = append(st.lcAbsorb, float64(s.dur())/ms)
			}
		}
		if kind != opRead || client == nil || len(nodes) == 0 {
			continue
		}
		front, slowest := nodes[0], int64(0)
		for _, n := range nodes {
			st.nodeSelf = append(st.nodeSelf, self(n, children))
			slowest = max(slowest, n.dur())
		}
		if router != nil {
			front = router
			st.routerSelf = append(st.routerSelf, self(router, children))
		}
		st.transport = append(st.transport, float64(client.dur()-front.dur())/ms)
		st.hops = append(st.hops, float64(len(nodes)))
		st.slowestHop = append(st.slowestHop, float64(slowest)/ms)
	}
	return st
}

// writeSpans dumps linked spans as JSON lines to path.
func writeSpans(path string, byTrace map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	ids := make([]string, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, s := range byTrace[id] {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
