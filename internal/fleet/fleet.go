// Package fleet turns single-node grafics daemons into a sharded,
// replicated serving fleet.
//
// The design follows the paper's deployment sketch: classification is
// read-heavy and embarrassingly parallel across buildings, while the
// mutation stream (scan absorption, MAC retirement) is tiny — a few
// records per second even for large campuses. So the fleet replicates
// the mutation stream, not the models: a primary journals every
// mutation to its WAL exactly as a single node does, and followers ship
// the raw WAL bytes over HTTP, mirror them to local segment files, and
// apply them through the same replay path used by crash recovery
// (lifecycle.ApplyRecord). A follower is therefore always a valid
// crash-recovery image of its primary, which is what makes kill-based
// failover safe: promoting a follower is literally the node "booting"
// from the mirrored journal.
//
// Three node roles exist:
//
//   - Primary: owns a lifecycle.Manager, serves reads and writes, and
//     exposes the replication surface (GET /v2/repl/status, /v2/repl/wal,
//     /v2/repl/snapshot). With MinSyncAcks > 0 an absorb is acknowledged
//     to the client only after that many followers have durably mirrored
//     the journaled record (semi-synchronous replication), so an acked
//     absorb survives the loss of the primary.
//   - Follower: bootstraps from the primary's snapshot, tails shipped WAL
//     chunks, and serves read-only classifications. Writes are refused
//     with server.ErrReadOnly (HTTP 421). A follower reports Ready only
//     when its applied position is within a configurable byte bound of
//     the primary's and its last successful sync is recent.
//   - Router: a stateless tier that routes every scan in one hop. Every
//     member reports its buildings' MAC sets on the status poll (only
//     when they changed), and the router builds one fleet-wide inverted
//     MAC index (portfolio.MACIndex) from each group's primary's report,
//     or its most caught-up member's while it knows of no primary in the
//     group. A read goes to one caught-up member of the group holding the
//     winning building, an absorb straight to that group's primary, and a
//     scan whose MACs no group has reported is refused without a hop. A
//     routed absorb's new MACs join the index at once, before the next
//     poll reports them. The router is a server.Router and a
//     server.Catalog, so it serves a node's own HTTP surface
//     (server.NewHandler): it decodes each node's answer and the surface
//     encodes it again, and a node's refusal comes back as a
//     server.StatusError with the node's status, Retry-After and message.
//     Its own routes are the /v2/admin/fleet topology, promote and drain.
//     It also health-checks members and automatically promotes the
//     freshest follower when a primary dies.
//
// Positions are wal.Position (segment index + byte offset) tagged with
// the log's epoch. Any WAL truncation on the primary (snapshot, refit)
// regenerates the epoch; followers detect the mismatch via HTTP 410 and
// re-bootstrap from a fresh snapshot while their previous portfolio
// keeps serving reads until the new image is adopted.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
)

// Role identifies how a node participates in the fleet.
type Role string

const (
	RolePrimary  Role = "primary"
	RoleFollower Role = "follower"
	RoleRouter   Role = "router"
)

var (
	// ErrEpochGone reports that the upstream WAL epoch changed (the
	// primary truncated or replaced its journal); the follower must
	// re-bootstrap from a snapshot.
	ErrEpochGone = errors.New("fleet: upstream WAL epoch changed")

	// ErrReplicationLag reports that a semi-sync write was journaled
	// locally but not confirmed mirrored by enough followers in time.
	ErrReplicationLag = errors.New("fleet: replication ack quorum not reached")

	// ErrNotPrimary reports that a replication or promotion request
	// reached a node in the wrong role.
	ErrNotPrimary = errors.New("fleet: node is not a primary")
)

// ReplStatus is the wire shape of GET /v2/repl/status. It extends the
// ReplInfo embedded in /v2/healthz and /v2/stats with the data a router
// or follower needs: the building set, the segment directory (for
// observability) and, on a poll with ?macs=<version>, the MAC sets a
// router routes by.
type ReplStatus struct {
	server.ReplInfo
	Buildings []string          `json:"buildings,omitempty"`
	Segments  []wal.SegmentInfo `json:"segments,omitempty"`
	// MACsVersion is the version of the node's attribution index; it is
	// reported only when the poll asked with ?macs=.
	MACsVersion uint64 `json:"macs_version,omitempty"`
	// MACs maps each building to its MAC set. It travels only when the
	// poll's ?macs= version is not MACsVersion.
	MACs map[string][]string `json:"macs,omitempty"`
}

// Replication HTTP headers. Raw WAL chunks travel as
// application/octet-stream with positions carried out of band.
const (
	headerEpoch     = "X-Grafics-Epoch"
	headerSeg       = "X-Grafics-Seg"
	headerOff       = "X-Grafics-Off"
	headerSegDone   = "X-Grafics-Seg-Done"
	headerSrcSeg    = "X-Grafics-Src-Seg"
	headerSrcOff    = "X-Grafics-Src-Off"
	headerNodeRole  = "X-Grafics-Role"
	replMaxChunk    = 1 << 20 // bytes of WAL shipped per fetch
	replMaxSnapshot = 1 << 30 // sanity cap on a streamed snapshot
)

// defaultDurations centralises fallbacks so Node/Follower/Router options
// can be zero-valued in tests.
const (
	defaultPollInterval   = 250 * time.Millisecond
	defaultAckTimeout     = 5 * time.Second
	defaultHTTPTimeout    = 10 * time.Second
	defaultHealthInterval = time.Second
	defaultLagBound       = int64(1 << 20)
	// defaultRetryBudget caps exponential backoff at base×2^budget and
	// bounds the retry attempts a routed write spends before giving up.
	defaultRetryBudget = 3
	// defaultBreakerThreshold opens a peer's circuit breaker after this
	// many consecutive failures.
	defaultBreakerThreshold = 5
)

// jitteredBackoff returns the pause before the next attempt after
// `fails` consecutive failures: base when healthy, doubling per failure
// up to base×2^budget, always with ±10% uniform jitter so loops that
// share an upstream never synchronize into a thundering herd.
func jitteredBackoff(base time.Duration, fails, budget int) time.Duration {
	if base <= 0 {
		base = defaultPollInterval
	}
	if budget <= 0 {
		budget = defaultRetryBudget
	}
	if fails > budget {
		fails = budget
	}
	d := base << uint(fails)
	if j := int64(d / 5); j > 0 {
		d += time.Duration(rand.Int64N(j)) - time.Duration(j/2)
	}
	return d
}

// lagBetween approximates how many bytes separate applied from source.
// Within one segment the distance is exact; across segments the true
// distance depends on segment sizes the follower may not have mirrored
// yet, so it is reported as unbounded (callers compare against a lag
// bound, and "more than a whole segment behind" is never ready).
func lagBetween(applied, source wal.Position) int64 {
	if source.Seg == applied.Seg {
		if d := source.Off - applied.Off; d > 0 {
			return d
		}
		return 0
	}
	if source.Seg < applied.Seg {
		return 0
	}
	return int64(source.Seg-applied.Seg)*wal.DefaultSegmentMaxBytes + source.Off
}

// sleepCtx pauses for d, returning false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func nonZero(d, fallback time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return fallback
}

func nopLogf(string, ...any) {}

func describePos(epoch string, pos wal.Position) string {
	return fmt.Sprintf("%s@%s", epoch, pos)
}

// handleMethod mounts h, instrumented, for method on path of a mux whose
// "/" is the serving surface. Another method on path must not fall
// through "/" to that surface's 404: it is a 405 naming the allowed
// methods, as on a mux without "/".
func handleMethod(mux *http.ServeMux, method, path string, h http.HandlerFunc) {
	pattern := method + " " + path
	mux.HandleFunc(pattern, obs.InstrumentHandler(pattern, h))
	allow := method
	if method == http.MethodGet {
		allow += ", " + http.MethodHead // a GET pattern serves HEAD too
	}
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
	})
}
