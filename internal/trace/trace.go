// Package trace is the observability layer of the reproduction: a structured
// event recorder plus a small metrics registry. Every message-touching layer
// (the simulator, the transport, the batch engine) emits events through a
// *Tracer it was handed; a nil *Tracer is the disabled state and every method
// is a nil-receiver no-op, so instrumented code pays one pointer comparison
// when tracing is off and routing outcomes are byte-identical either way
// (pinned by tests in internal/core).
//
// The package deliberately depends on nothing inside the repository so the
// simulator, core and the CLIs can all import it without cycles; node IDs are
// carried as plain ints.
package trace

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Kind classifies one traced event.
type Kind uint8

const (
	// Simulator events.
	KindRound   Kind = iota // one completed communication round (Value = messages delivered)
	KindSend                // a message entered the delivery queue (From, To, Words, AdHoc)
	KindDrop                // fault injection discarded a send (From, To, Words, AdHoc)
	KindDeliver             // a message reached its receiver's inbox (From, To)

	// Transport events (one routed query's hop protocol).
	KindHopSend  // first transmission attempt of a payload hop (From, To, Seq, Plan)
	KindHopRetry // timer-driven retransmission of a pending hop (Attempt = attempts so far)
	KindHopAck   // the hop acknowledgement matched a pending transfer
	KindHopNack  // a holder gave up on its next hop and notified the source (To = dead hop)
	KindReplan   // the source computed a fresh path around dead hops (Plan = producing planner)
	KindDetour   // loss-aware planning substituted an ETX detour for the geometric plan

	// Batch-engine events.
	KindCacheHit   // engine answer-cache lookup hit (From, To = the query pair)
	KindCacheMiss  // engine answer-cache lookup miss (From, To = the query pair)
	KindCacheEvict // LRU eviction(s) during a store (Value = entries evicted)
	KindQueueDepth // outstanding queries (unclaimed + in-flight) when a worker finished one (Value = depth)

	// Churn events (dynamic membership).
	KindCrash   // a node left the network (From = node, Round = sim round)
	KindRecover // a crashed node rejoined (From = node, Round = sim round)
	KindSuspect // ack telemetry marked a next hop suspected (From = observer, To = suspect)
	KindRepair  // the topology was rebuilt after a membership change (From = node, Plan = "patch" or, when the dead set emptied, "restore"; Value = holes after it)

	// Byzantine adversary events (From/To as in Send for the simulator-side
	// kinds; transport-side kinds carry the detecting node).
	KindMisroute         // an adversary redirected a payload to a wrong neighbor (To = actual receiver)
	KindAdvDrop          // an adversary black-holed a payload of a selected flow (To = adversary)
	KindForgedAck        // an adversary discarded a payload it had already acked (From = adversary)
	KindMisrouteDetected // an honest holder received a payload it cannot forward (From = holder, To = unreachable hop)
	KindVerifyFail       // end-to-end verification gave up on a payload launch (From = source, To = target, Attempt = launch number)
	KindE2EResend        // the source relaunched the payload after verification failed (Value = resends so far)

	// Cluster gateway events (From = backend index; Plan = backend ID).
	KindFailover        // an attempt failed and the query moved to the next replica (Attempt = attempts so far)
	KindBreakerOpen     // a backend's circuit breaker tripped open (Value = consecutive failures)
	KindBreakerHalfOpen // an open breaker released one half-open probe
	KindBreakerClose    // a half-open probe succeeded and the breaker closed
	KindHedge           // the hedge delay elapsed and a duplicate request was issued to the next replica
	KindHedgeWin        // the hedged duplicate answered before the primary
	KindDegraded        // every replica was down and the gateway answered degraded (Plan = "stale" or "longrange")

	numKinds
)

var kindNames = [numKinds]string{
	"round", "send", "drop", "deliver",
	"hop_send", "hop_retry", "hop_ack", "hop_nack", "replan", "detour",
	"cache_hit", "cache_miss", "cache_evict", "queue_depth",
	"crash", "recover", "suspect", "repair",
	"misroute", "adv_drop", "forged_ack", "misroute_detected", "verify_fail", "e2e_resend",
	"failover", "breaker_open", "breaker_half_open", "breaker_close", "hedge", "hedge_win", "degraded",
}

// String returns the stable snake_case name of the kind (also its JSON form).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind by name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one structured observation. Fields beyond Kind are meaningful per
// kind (see the Kind constants); unused fields stay zero and are omitted from
// JSON.
type Event struct {
	Kind    Kind   `json:"kind"`
	Round   int    `json:"round,omitempty"`
	From    int    `json:"from,omitempty"`
	To      int    `json:"to,omitempty"`
	Seq     int    `json:"seq,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Words   int    `json:"words,omitempty"`
	Value   int    `json:"value,omitempty"`
	AdHoc   bool   `json:"adhoc,omitempty"`
	Plan    string `json:"plan,omitempty"`
}

// DefaultLimit bounds a Tracer's buffer when no limit is given. Past it,
// events are counted as dropped instead of recorded, so a runaway run cannot
// exhaust memory.
const DefaultLimit = 1 << 18

// Tracer records events into a bounded in-memory buffer. A nil *Tracer is the
// disabled recorder: Emit and every accessor are no-ops, so instrumentation
// sites need no separate enabled flag. All methods are safe for concurrent
// use (the simulator's parallel stepping and the engine's worker pool emit
// from many goroutines; the buffer order is then the arrival order, which is
// not deterministic — aggregate views are, since they are order-free).
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped uint64
}

// New creates a tracer bounded to limit events; limit <= 0 means
// DefaultLimit.
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Tracer{limit: limit}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event (dropping it, counted, once the buffer is full).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.events) < t.limit {
		t.events = append(t.events, e)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events the buffer limit discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of all recorded events.
func (t *Tracer) Events() []Event { return t.Since(0) }

// Since returns a copy of the events recorded from index start on; callers
// snapshot Len() before an operation and pass it here to scope that
// operation's events.
func (t *Tracer) Since(start int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if start < 0 {
		start = 0
	}
	if start >= len(t.events) {
		return nil
	}
	return append([]Event(nil), t.events[start:]...)
}

// Drain returns the recorded events and clears the buffer in one step, so a
// streaming consumer (the serve-mode exporter) can repeatedly hand batches
// downstream without the bounded buffer ever filling up mid-run. Unlike Reset
// the cumulative dropped count is kept: for a streaming consumer it is the
// total number of events lost since the tracer was installed, which is what a
// truthful exporter must report.
func (t *Tracer) Drain() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) == 0 {
		return nil
	}
	out := append([]Event(nil), t.events...)
	t.events = t.events[:0]
	return out
}

// Reset discards all recorded events and the dropped count.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.dropped = 0
	t.mu.Unlock()
}

// CountByKind aggregates the recorded events per kind name.
func (t *Tracer) CountByKind() map[string]int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int)
	for _, e := range t.events {
		out[e.Kind.String()]++
	}
	return out
}
