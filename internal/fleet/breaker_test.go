package fleet

import "testing"

// TestBreakerOpensAtThresholdAndClosesOnSuccess: the circuit stays closed
// below the threshold of consecutive failures, opens at it, stays open
// through further failures, and one success closes it and restarts the
// count.
func TestBreakerOpensAtThresholdAndClosesOnSuccess(t *testing.T) {
	b := newBreaker(3)
	for i := 1; i <= 2; i++ {
		if st := b.record(false); st != breakerClosed {
			t.Fatalf("failure %d: state %v, want closed", i, st)
		}
	}
	if st := b.record(true); st != breakerClosed {
		t.Fatalf("success: state %v, want closed", st)
	}
	for i := 1; i <= 2; i++ {
		b.record(false)
	}
	if st := b.record(false); st != breakerOpen || b.current() != breakerOpen {
		t.Fatalf("third consecutive failure: state %v, want open", st)
	}
	if st := b.record(false); st != breakerOpen {
		t.Fatalf("failure while open: state %v, want open", st)
	}
	if st := b.record(true); st != breakerClosed || b.current() != breakerClosed {
		t.Fatalf("success while open: state %v, want closed", st)
	}
	if st := b.record(false); st != breakerClosed {
		t.Fatalf("first failure after closing: state %v, want closed", st)
	}
	if got := newBreaker(0).threshold; got != defaultBreakerThreshold {
		t.Errorf("threshold 0 gives %d, want the default %d", got, defaultBreakerThreshold)
	}
}
