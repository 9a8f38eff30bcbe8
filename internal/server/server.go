// Package server exposes a trained GRAFICS portfolio over HTTP for
// deployment behind the smart-city applications the paper motivates
// (navigation, geofencing, robot rescue).
//
// It is the one HTTP surface of every serving role: NewHandler serves
// a Catalog (the buildings and their statistics) and a Router (the
// classifications and writes). A single node passes its portfolio or
// lifecycle manager, a fleet primary or follower its role's Router, and
// the fleet router itself, which forwards each call to the shard group
// that owns the scan.
//
// The surface is built on the context-first Classify API and reports
// confidence and top-K candidate floors, takes writes, and streams
// batches (see v2.go):
//
//	GET    /v2/healthz            readiness probe (503 until a building is trained)
//	POST   /v2/classify           classify one scan (options in body)
//	POST   /v2/classify/batch     classify many scans, NDJSON streaming reply
//	POST   /v2/absorb             classify and keep the scan in the graph
//	DELETE /v2/macs/{mac}         retire an access point fleet-wide
//	GET    /v2/stats              per-building graph statistics
//	GET    /v2/metrics            Prometheus scrape of the process metrics registry
//	GET    /v2/version            build identity (module, VCS revision, Go version)
//
// Every route is wrapped in the obs HTTP instruments (metrics.go): the
// request carries an X-Grafics-Trace ID — adopted from the caller or
// minted here — through its context and response headers, per-route
// latency/status/in-flight metrics feed /v2/metrics, and a debug-level
// slog line records each request with its span timings.
//
// With a lifecycle manager attached (Options.Lifecycle, with the manager
// as the Router), absorbs are journaled to the write-ahead log before the
// response is sent, and the admin surface is mounted (see admin.go):
//
//	POST /v2/admin/snapshot       capture the fleet under the state dir, truncate the WAL
//	POST /v2/admin/refit          force a background refit (?building=, default all)
//	GET  /v2/admin/lifecycle      staleness, WAL, snapshot, and refit status
//
// Scans use the dataset.Record JSON shape:
//
//	{"id": "scan-1", "readings": [{"mac": "aa:bb:...", "rss": -61}, ...]}
//
// # Concurrency
//
// Every classify route is read-only against the trained models: core
// embeds a scan from its edges into the frozen graph under only a shared
// read lock, so the net/http goroutine-per-request model gives
// near-linear scaling with cores out of the box — no serialization on a
// model mutex. The batch route additionally runs each 64-scan chunk's
// scans through Router.ClassifyRouted at once, which keeps a single bulk
// client saturating the machine without having to pipeline its own HTTP
// requests; an absorbing line takes exactly a single absorb's path.
// Request contexts propagate into the classification layer, so timeouts
// and client disconnects abort in-flight batches promptly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/rfgraph"
	"repro/internal/wal"
)

// Router is the write-path entry point the HTTP surface talks to:
// classification of one scan (absorbs included) and AP retirement. A
// batch is many single classifications, which the batch route fans out
// itself, so a role implements no batch method.
// portfolio.Portfolio implements it directly; lifecycle.Manager wraps it
// with write-ahead journaling and refit accounting, so when a lifecycle
// manager is attached every write taken over HTTP is durable.
type Router interface {
	ClassifyRouted(ctx context.Context, rec *dataset.Record, opts ...core.Option) (portfolio.Routed, error)
	RemoveMAC(ctx context.Context, mac string) (int, error)
}

// Catalog is what the surface reports about the buildings it serves:
// their names gate /v2/healthz and their graph statistics answer
// /v2/stats. portfolio.Portfolio reads its own; the fleet router asks
// its shard groups.
type Catalog interface {
	Buildings() []string
	Stats(ctx context.Context) []portfolio.BuildingStats
}

var (
	_ Router  = (*portfolio.Portfolio)(nil)
	_ Router  = (*lifecycle.Manager)(nil)
	_ Catalog = (*portfolio.Portfolio)(nil)
)

// errorResponse is the JSON error shape.
type errorResponse struct {
	Error string `json:"error"`
}

// ErrReadOnly is returned by a Router that serves a read-only replica: a
// write (absorb, MAC retirement) reached a node that cannot journal it.
// The HTTP surface maps it to 421 Misdirected Request — the client (or
// the fleet routing tier) should resend the write to the primary.
var ErrReadOnly = errors.New("server: read-only replica, writes go to the primary")

// StatusError is an error that carries its own HTTP answer. A Router
// that forwards over the network returns a peer's non-200 reply as one,
// so the client gets the peer's status, Retry-After and message.
type StatusError struct {
	Status     int
	RetryAfter string // the Retry-After header to send, "" for none
	Msg        string
}

func (e *StatusError) Error() string { return e.Msg }

// maxBodyBytes bounds single-scan request bodies; a WiFi scan is a few KB
// at most.
const maxBodyBytes = 1 << 20

// maxBatchBytes bounds batch request bodies (thousands of scans).
const maxBatchBytes = 32 << 20

// maxBatchScans caps how many scans one batch request may carry.
const maxBatchScans = 10000

// ReplInfo describes a node's replication state, reported by /v2/healthz
// and /v2/stats when the handler is built with Options.Repl (a fleet
// deployment; a standalone daemon has no replication to report). The
// positions are WAL coordinates in the primary's epoch.
type ReplInfo struct {
	// Role is the node's serving role: "primary" or "follower", or
	// "router" for a fleet router.
	Role string `json:"role"`
	// Primary is the upstream base URL a follower replicates from.
	Primary string `json:"primary,omitempty"`
	// Epoch identifies the WAL segment numbering the positions live in;
	// it changes whenever the primary truncates its log.
	Epoch string `json:"epoch,omitempty"`
	// Applied is the WAL position up to which this node has applied
	// records (a primary has applied everything it has journaled).
	Applied wal.Position `json:"applied"`
	// Mirrored is the WAL position up to which this node holds durable
	// journal bytes (a follower mirrors slightly ahead of applying; a
	// primary's mirror is its own log). Failover picks the follower with
	// the highest Mirrored position, since promotion drains the mirror
	// before serving.
	Mirrored wal.Position `json:"mirrored"`
	// Source is the upstream's append position at the last sync (for a
	// primary, its own).
	Source wal.Position `json:"source"`
	// LagBytes is how many journal bytes the node is behind its source;
	// AppliedRecords counts records applied since the current epoch
	// began.
	LagBytes       int64 `json:"lag_bytes"`
	AppliedRecords int   `json:"applied_records"`
	// LagBoundBytes is the configured readiness bound: a follower is
	// Ready only while LagBytes stays within it.
	LagBoundBytes int64 `json:"lag_bound_bytes,omitempty"`
	// Ready reports whether the node should receive read traffic: a
	// follower is ready only once bootstrapped and caught up within the
	// lag bound.
	Ready bool `json:"ready"`
	// Degraded reports that the node's journal is sick: reads are still
	// served from memory, but absorbs are refused with 503 until a
	// recovery probe succeeds.
	Degraded bool `json:"degraded,omitempty"`
	// LastSync is when the node last heard from its source: set by a
	// follower once it has synced, absent on every other role.
	LastSync *time.Time `json:"last_sync,omitempty"`
	// Error is the most recent replication failure, empty while healthy.
	Error string `json:"error,omitempty"`
}

// Options configures NewHandler beyond the plain read-only surface.
type Options struct {
	// Lifecycle, when set, mounts the /v2/admin routes (snapshot, refit,
	// lifecycle status). The Router passed to NewHandler should then be
	// the manager (or wrap it) so absorbs are journaled.
	Lifecycle *lifecycle.Manager
	// Repl, when set, reports the node's replication state: /v2/healthz
	// gates readiness on it (a lagging follower answers 503 so load
	// balancers stop routing reads to it) and /v2/stats embeds it.
	Repl func() ReplInfo
	// MaxInflightAbsorbs bounds concurrently admitted absorbing requests
	// (absorb, absorbing classify/batch, MAC retirement). Excess writes
	// wait up to a second for a slot and are then shed with 429 and a
	// Retry-After. 0 disables admission control.
	MaxInflightAbsorbs int
}

// NewHandler builds the HTTP handler: c serves the registration-level
// reads, rt the classifications (absorbs included), and opts attaches the
// lifecycle admin surface, replication reporting and write admission. An
// in-memory deployment passes its portfolio as both c and rt; a durable
// one passes its lifecycle manager as rt and as Options.Lifecycle, so
// every absorb is journaled; the fleet roles interpose their own Router,
// and the fleet router is both c and rt.
func NewHandler(c Catalog, rt Router, opts Options) http.Handler {
	mux := http.NewServeMux()
	registerV2(mux, c, rt, opts)
	registerObs(mux)
	if opts.Lifecycle != nil {
		registerAdmin(mux, opts.Lifecycle)
	}
	return mux
}

// healthz reports readiness, not just liveness: a portfolio with no
// trained buildings answers 503 so load balancers don't route traffic to
// cold instances that would reject every scan, and a replication
// follower answers 503 until it has bootstrapped and caught up within
// its configured lag bound — a stale follower serving reads would answer
// with classifications the fleet has already outgrown.
func healthz(c Catalog, repl func() ReplInfo) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := len(c.Buildings())
		status, state := http.StatusOK, "ok"
		if n == 0 {
			status, state = http.StatusServiceUnavailable, "empty"
		}
		body := map[string]any{"buildings": n}
		if repl != nil {
			ri := repl()
			if status == http.StatusOK && !ri.Ready {
				status, state = http.StatusServiceUnavailable, "lagging"
			}
			// Degraded keeps 200: reads still work, and pulling the node
			// from rotation would shed the traffic it CAN serve. Writers
			// learn from the 503 + Retry-After on the absorb itself.
			if status == http.StatusOK && ri.Degraded {
				state = "degraded"
			}
			body["replication"] = ri
		}
		body["status"] = state
		writeJSON(w, status, body)
	}
}

// statusClientClosedRequest is nginx's non-standard code for a request
// whose client went away; the reply is never seen, the code only serves
// access logs.
const statusClientClosedRequest = 499

// predictStatus maps domain errors to HTTP status codes.
func predictStatus(err error) int {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		return se.Status
	case errors.Is(err, portfolio.ErrUnknownMAC):
		return http.StatusNotFound
	case errors.Is(err, portfolio.ErrUnattributable),
		errors.Is(err, core.ErrOutOfBuilding):
		return http.StatusUnprocessableEntity
	case errors.Is(err, rfgraph.ErrBadWeight):
		// A reading whose RSS maps to no usable edge weight (at or below
		// -120 dBm under the default f) is the client's input, not a
		// server fault.
		return http.StatusBadRequest
	case errors.Is(err, portfolio.ErrAmbiguousMatch):
		return http.StatusConflict
	case errors.Is(err, ErrReadOnly):
		return http.StatusMisdirectedRequest
	case errors.Is(err, portfolio.ErrNoBuildings),
		errors.Is(err, core.ErrNotTrained),
		errors.Is(err, lifecycle.ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is written can only be logged by
	// the caller's middleware; the payloads here are all marshallable.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	// A degraded-journal rejection tells the client exactly when the next
	// recovery probe runs; well-behaved writers back off instead of
	// hammering a node that cannot journal. A peer's answer passes its
	// own Retry-After on.
	var (
		deg *lifecycle.DegradedError
		se  *StatusError
	)
	switch {
	case errors.As(err, &deg):
		secs := int((deg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.As(err, &se) && se.RetryAfter != "":
		w.Header().Set("Retry-After", se.RetryAfter)
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
