package cluster

import (
	"testing"
	"time"
)

// fakeClock drives the breaker's injected clock without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeBreaker(cfg BreakerConfig) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(cfg)
	b.now = clk.now
	return b, clk
}

// TestBreakerTripAndRecover walks the full state machine: closed trips open
// on the Nth consecutive failure, open refuses until the cooldown, then
// releases exactly one half-open probe whose success closes the circuit.
func TestBreakerTripAndRecover(t *testing.T) {
	b, clk := newFakeBreaker(BreakerConfig{FailThreshold: 3, Cooldown: time.Second})

	for i := 0; i < 2; i++ {
		if tr := b.Failure(); tr != transNone {
			t.Fatalf("failure %d: transition %d, want none", i+1, tr)
		}
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("failure %d: breaker should still be closed", i+1)
		}
	}
	if tr := b.Failure(); tr != transOpen {
		t.Fatalf("third failure: transition %d, want open", tr)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("open breaker inside cooldown must refuse")
	}

	clk.advance(1100 * time.Millisecond)
	ok, tr := b.Allow()
	if !ok || tr != transHalfOpen {
		t.Fatalf("post-cooldown Allow = (%v, %d), want (true, half-open)", ok, tr)
	}
	// The single-probe rule: a second caller while the probe is in flight.
	if ok, _ := b.Allow(); ok {
		t.Fatal("half-open breaker must admit exactly one probe")
	}
	if tr := b.Success(0); tr != transClose {
		t.Fatalf("probe success: transition %d, want close", tr)
	}
	if ok, _ := b.Allow(); !ok {
		t.Fatal("closed breaker must admit")
	}
	if got := b.State(); got != "closed" {
		t.Fatalf("state = %q, want closed", got)
	}
}

// TestBreakerHalfOpenFailureRestartsCooldown pins the probe-failure edge:
// back to open, and the cooldown starts over from the failure.
func TestBreakerHalfOpenFailureRestartsCooldown(t *testing.T) {
	b, clk := newFakeBreaker(BreakerConfig{FailThreshold: 1, Cooldown: time.Second})
	if tr := b.Failure(); tr != transOpen {
		t.Fatalf("transition %d, want open", tr)
	}
	clk.advance(1100 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("cooldown elapsed, want probe")
	}
	if tr := b.Failure(); tr != transOpen {
		t.Fatalf("probe failure: transition %d, want open", tr)
	}
	// Half the new cooldown: still refused.
	clk.advance(500 * time.Millisecond)
	if ok, _ := b.Allow(); ok {
		t.Fatal("cooldown must restart after a failed probe")
	}
	clk.advance(600 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("restarted cooldown elapsed, want probe")
	}
}

// TestBreakerSuccessResetsCounter pins that non-consecutive failures never
// trip: N-1 failures then a success restarts the count.
func TestBreakerSuccessResetsCounter(t *testing.T) {
	b, _ := newFakeBreaker(BreakerConfig{FailThreshold: 2, Cooldown: time.Second})
	b.Failure()
	b.Success(0)
	if tr := b.Failure(); tr != transNone {
		t.Fatalf("first failure after success tripped (transition %d)", tr)
	}
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker must stay closed below the consecutive threshold")
	}
}

// TestBreakerLatencyThreshold pins the gray-failure path: successes slower
// than the threshold feed the trip counter even though each answer is used.
func TestBreakerLatencyThreshold(t *testing.T) {
	b, _ := newFakeBreaker(BreakerConfig{FailThreshold: 2, Cooldown: time.Second, LatencyThreshold: 10 * time.Millisecond})
	if tr := b.Success(50 * time.Millisecond); tr != transNone {
		t.Fatalf("first slow success: transition %d, want none", tr)
	}
	if tr := b.Success(50 * time.Millisecond); tr != transOpen {
		t.Fatalf("second slow success: transition %d, want open", tr)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("latency-tripped breaker must refuse")
	}
}

// TestBreakerClosedPeek pins that the hedge-backup peek has no side effects
// on an open breaker whose cooldown has elapsed.
func TestBreakerClosedPeek(t *testing.T) {
	b, clk := newFakeBreaker(BreakerConfig{FailThreshold: 1, Cooldown: time.Second})
	if !b.Closed() {
		t.Fatal("fresh breaker should peek closed")
	}
	b.Failure()
	clk.advance(2 * time.Second)
	if b.Closed() {
		t.Fatal("open breaker must not peek closed even after cooldown")
	}
	// The peek must not have consumed the half-open probe slot.
	if ok, tr := b.Allow(); !ok || tr != transHalfOpen {
		t.Fatalf("Allow after peek = (%v, %d), want the half-open probe", ok, tr)
	}
}
