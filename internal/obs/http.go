// HTTP instrumentation shared by every mux in the tree (server routes,
// fleet router, replication endpoints): per-route latency histograms,
// status-code counters, an in-flight gauge, trace adoption/minting, and
// a debug-level structured request log. Route labels are the mux
// patterns ("POST /v2/classify"), never raw paths, so cardinality stays
// bounded no matter what clients request.

package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// The server-wide HTTP instruments.
var (
	httpInFlight = Default().Gauge("grafics_http_in_flight_requests",
		"Requests currently being served across all instrumented routes.")
	httpRequests = Default().CounterVec("grafics_http_requests_total",
		"Requests served, by route pattern and status code.", "route", "code")
	httpLatency = Default().HistogramVec("grafics_http_request_seconds",
		"Request latency by route pattern.", TimeBuckets, "route")
)

// InstrumentHandler wraps one route's handler with the HTTP
// instruments: it resolves the route's latency histogram and its 200
// counter once, so a 200 counts without the family's lock, adopts
// the caller's trace (X-Grafics-Trace) or mints one, echoes the ID on
// the response, and records latency/status/in-flight around the call.
// The request log is emitted at debug level — silent under the default
// logger, captured in tests and verbose deployments via SetLogger.
func InstrumentHandler(route string, h http.HandlerFunc) http.HandlerFunc {
	lat := httpLatency.With(route)
	ok200 := httpRequests.With(route, "200")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		httpInFlight.Add(1)
		defer httpInFlight.Add(-1)
		tr := TraceFrom(r.Context())
		origin := "local"
		if tr == nil {
			var remote bool
			tr, remote = AdoptTrace(r.Header.Get(TraceHeader))
			if remote {
				origin = "header"
			}
			r = r.WithContext(WithTrace(r.Context(), tr))
		}
		w.Header().Set(TraceHeader, tr.ID)
		sw := statusWriter{ResponseWriter: w}
		h(&sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		dur := time.Since(start)
		lat.Observe(dur.Seconds())
		if code == http.StatusOK {
			ok200.Inc()
		} else {
			httpRequests.With(route, strconv.Itoa(code)).Inc()
		}
		if lg := Logger(); lg.Enabled(r.Context(), slog.LevelDebug) {
			lg.LogAttrs(r.Context(), slog.LevelDebug, "http request",
				slog.String("trace", tr.ID),
				slog.String("origin", origin),
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", code),
				slog.Duration("dur", dur),
				slog.String("spans", tr.SpanString()),
			)
		}
	}
}

// statusWriter captures the status code of a response. It implements
// http.Flusher unconditionally (a no-op over non-flushing writers) so
// the NDJSON streaming routes keep flushing per chunk through it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
