// Server-side admission control for the write path. Absorbs are the
// expensive requests — each one mutates a building graph, appends to
// the WAL, and may wait on a replication quorum — so an unbounded burst
// of them can queue behind the journal and push every request past its
// deadline. The gate bounds how many absorbs are in flight at once:
// excess requests wait briefly for a slot and are then shed with 429
// and a Retry-After, which keeps latency bounded for the admitted
// writes and leaves the read path untouched.

package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/obs"
)

// ErrOverloaded reports that the absorb admission gate shed a request:
// too many absorbs were already in flight and a slot did not free up
// within the queue deadline. Mapped to 429 Too Many Requests.
var ErrOverloaded = errors.New("server: too many in-flight absorbs, retry later")

// defaultAbsorbQueueWait is how long a write waits for an admission
// slot before being shed. Short on purpose: a write that would sit in
// a queue longer than this is better retried against a less loaded
// moment (or, through the fleet router, a retried forward).
const defaultAbsorbQueueWait = time.Second

var (
	absorbInflight = obs.Default().Gauge("grafics_server_absorb_inflight",
		"Absorbing requests currently admitted past the write gate.")
	absorbShedTotal = obs.Default().Counter("grafics_server_absorb_shed_total",
		"Absorbing requests shed with 429 because the admission gate was full past its queue deadline.")
)

// absorbGate bounds in-flight absorbing requests. A nil gate admits
// everything (admission control disabled).
type absorbGate struct {
	slots chan struct{}
}

// newAbsorbGate builds a gate admitting at most maxInflight concurrent
// absorbs, each waiting up to defaultAbsorbQueueWait for a slot.
// maxInflight <= 0 disables admission control (returns nil).
func newAbsorbGate(maxInflight int) *absorbGate {
	if maxInflight <= 0 {
		return nil
	}
	return &absorbGate{slots: make(chan struct{}, maxInflight)}
}

// acquire claims an admission slot, waiting up to the queue deadline.
// On success the returned release must be called when the request
// finishes. On timeout it returns ErrOverloaded; on context end, the
// context's error.
func (g *absorbGate) acquire(ctx context.Context) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	select {
	case g.slots <- struct{}{}:
	default:
		// Full: wait for a slot, but only up to the queue deadline — an
		// absorb queued longer than that is shed so the client can back
		// off or the fleet router can retry elsewhere.
		t := time.NewTimer(defaultAbsorbQueueWait)
		defer t.Stop()
		select {
		case g.slots <- struct{}{}:
		case <-t.C:
			absorbShedTotal.Inc()
			return nil, ErrOverloaded
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	absorbInflight.Add(1)
	return func() {
		absorbInflight.Add(-1)
		<-g.slots
	}, nil
}

// writeGateError maps a gate rejection onto the wire: 429 with a
// one-second Retry-After for a shed, the usual status mapping for
// anything else (context errors).
func writeGateError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, predictStatus(err), err)
}
