package fleet

import "sync"

// breakerState is a peer circuit's state. The values are the ones the
// grafics_fleet_breaker_state gauge exports.
type breakerState int

const (
	breakerClosed breakerState = 0
	breakerOpen   breakerState = 2
)

func (s breakerState) String() string {
	if s == breakerOpen {
		return "open"
	}
	return "closed"
}

// breaker is a per-peer circuit breaker: a count of consecutive failed
// requests and health polls. At threshold the circuit opens and sheds
// the peer (reads route elsewhere, health polls keep probing); the next
// success closes it. Safe for concurrent use.
type breaker struct {
	threshold int

	mu sync.Mutex
	// grafics:guardedby mu
	fails int
}

func newBreaker(threshold int) *breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	return &breaker{threshold: threshold}
}

// record feeds one request outcome (or health-poll result) back into
// the circuit and returns the resulting state.
func (b *breaker) record(ok bool) breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.fails = 0
	} else {
		b.fails++
	}
	return b.stateLocked()
}

// current returns the state without side effects.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

//grafics:locked mu
func (b *breaker) stateLocked() breakerState {
	if b.fails >= b.threshold {
		return breakerOpen
	}
	return breakerClosed
}
