package core

import (
	"math"
	"testing"

	"hybridroute/internal/sim"
)

// TestLinkStatsObserve pins the EWMA fold: failures raise the estimate,
// successes decay it, and a clean first-attempt success on an unseen link is
// a complete no-op (no entry, no generation bump) — the property that keeps
// lossless runs byte-identical.
func TestLinkStatsObserve(t *testing.T) {
	ls := NewLinkStats(0.25)
	ls.Observe(1, 2, 1, true) // unseen link, clean success
	if ls.Generation() != 0 || len(ls.Snapshot()) != 0 {
		t.Fatalf("clean success on unseen link must be a no-op (gen %d, %d entries)", ls.Generation(), len(ls.Snapshot()))
	}
	if ls.Loss(1, 2) != 0 || ls.ETX(1, 2) != 1 {
		t.Fatalf("unseen link must read loss 0, ETX 1")
	}

	// One transfer acked after 3 attempts: two loss samples, one success.
	ls.Observe(1, 2, 3, true)
	want := 0.0
	want += 0.25 * (1 - want)
	want += 0.25 * (1 - want)
	want -= 0.25 * want
	if got := ls.Loss(1, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("loss = %v, want %v", got, want)
	}
	if ls.Generation() != 1 {
		t.Errorf("generation = %d, want 1 after one estimate change", ls.Generation())
	}
	// Direction matters: the reverse link is untouched.
	if ls.Loss(2, 1) != 0 {
		t.Error("reverse direction must be independent")
	}

	// Successes decay the estimate and still advance the generation.
	before := ls.Loss(1, 2)
	ls.Observe(1, 2, 1, true)
	if got := ls.Loss(1, 2); got >= before || got <= 0 {
		t.Errorf("success must decay the estimate: %v -> %v", before, got)
	}
	if ls.Generation() != 2 {
		t.Errorf("generation = %d, want 2", ls.Generation())
	}
}

// TestLinkStatsETXCap checks the p̂ → 1 behaviour: a link that never acks
// saturates near 1 but ETX stays finite (edge removal is the transport's
// dead-node mechanism, not the estimator's).
func TestLinkStatsETXCap(t *testing.T) {
	ls := NewLinkStats(0.5)
	for i := 0; i < 60; i++ {
		ls.Observe(3, 4, 4, false)
	}
	p := ls.Loss(3, 4)
	if p < 0.99 || p > 1 {
		t.Fatalf("estimate after persistent failure = %v, want ~1", p)
	}
	etx := ls.ETX(3, 4)
	if math.IsInf(etx, 1) || etx < 1/(1-0.98)-1e-9 {
		t.Errorf("ETX = %v, want the capped finite maximum %v", etx, 1/(1-0.98))
	}
}

// TestLinkStatsSnapshotDeterministic checks Snapshot returns links sorted by
// (from, to) regardless of insertion order.
func TestLinkStatsSnapshotDeterministic(t *testing.T) {
	ls := NewLinkStats(0)
	ls.Observe(5, 1, 2, false)
	ls.Observe(2, 9, 2, false)
	ls.Observe(2, 3, 2, false)
	snap := ls.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("want 3 entries, got %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1], snap[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("snapshot not sorted: %+v", snap)
		}
	}
}

// TestEngineCacheVersionedByLinkGeneration pins the cache rule: an answer
// cached under one link-quality generation is not served after the
// estimates shift.
func TestEngineCacheVersionedByLinkGeneration(t *testing.T) {
	nw := prepScenario(t, 0.55, 7, 7, 1.5)
	eng := NewEngine(nw, EngineConfig{Workers: 1})
	var q Query
	// Find a pair whose plan has waypoints.
	found := false
	for s := 0; s < nw.G.N() && !found; s++ {
		for d := 0; d < nw.G.N(); d++ {
			out := nw.Route(sim.NodeID(s), sim.NodeID(d))
			if len(out.Waypoints) > 0 {
				q = Query{S: sim.NodeID(s), T: sim.NodeID(d)}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no waypoint-consulting pair in this scenario")
	}
	eng.Route(q.S, q.T)
	eng.Route(q.S, q.T)
	st := eng.Stats()
	if st.Hits == 0 {
		t.Fatalf("repeat query must hit the cache: %+v", st)
	}
	// Shift the link-quality estimates: the generation advances and the next
	// lookup must miss (stale answers are no longer addressable).
	nw.Link.Observe(q.S, q.T, 3, false)
	if nw.Link.Generation() == 0 {
		t.Fatal("observation must advance the generation")
	}
	missesBefore := eng.Stats().Misses
	eng.Route(q.S, q.T)
	if eng.Stats().Misses <= missesBefore {
		t.Errorf("post-shift query must miss the cache: %+v", eng.Stats())
	}
}
