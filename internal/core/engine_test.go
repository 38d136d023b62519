package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
	"hybridroute/internal/workload"
)

// samplePairsWithRepeats draws q pairs, half from a small hot set so the
// plan cache has something to reuse, and includes self-queries.
func samplePairsWithRepeats(rng *rand.Rand, n, q int) []Query {
	hot := make([]Query, 8)
	for i := range hot {
		hot[i] = Query{S: sim.NodeID(rng.Intn(n)), T: sim.NodeID(rng.Intn(n))}
	}
	out := make([]Query, 0, q)
	for len(out) < q {
		if rng.Intn(2) == 0 {
			out = append(out, hot[rng.Intn(len(hot))])
		} else {
			out = append(out, Query{S: sim.NodeID(rng.Intn(n)), T: sim.NodeID(rng.Intn(n))})
		}
	}
	return out
}

// TestEngineMatchesSequential is the engine's core contract: cold and warm,
// with any worker count, RouteBatch outcomes are identical to routing each
// query sequentially through Network.Route.
func TestEngineMatchesSequential(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	rng := rand.New(rand.NewSource(41))
	queries := samplePairsWithRepeats(rng, nw.G.N(), 150)

	want := make([]Outcome, len(queries))
	for i, q := range queries {
		want[i] = nw.Route(q.S, q.T)
	}

	eng := NewEngine(nw, EngineConfig{Workers: 4, CacheSize: 1024})
	for pass, label := range []string{"cold", "warm"} {
		got := eng.RouteBatch(queries)
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s pass %d: query %d (%d->%d): engine %+v != sequential %+v",
					label, pass, i, queries[i].S, queries[i].T, got[i], want[i])
			}
		}
	}
	st := eng.Stats()
	if st.Hits == 0 {
		t.Error("warm pass over repeated queries must hit the plan cache")
	}
	if st.Entries == 0 {
		t.Error("cache must hold entries after routing around a hole")
	}
	t.Logf("cache: %d hits, %d misses (rate %.2f), %d entries, %d evictions",
		st.Hits, st.Misses, st.HitRate(), st.Entries, st.Evictions)
}

// TestEngineCachesAnswersOnly pins that the cache holds whole answers and
// nothing else: k distinct pairs through an engine with room for all of them
// leave exactly k entries after k misses, and a second pass answers all k
// from the cache.
func TestEngineCachesAnswersOnly(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	rng := rand.New(rand.NewSource(45))
	seen := map[Query]bool{}
	var queries []Query
	planned := 0
	for len(queries) < 80 {
		q := Query{S: sim.NodeID(rng.Intn(nw.G.N())), T: sim.NodeID(rng.Intn(nw.G.N()))}
		if seen[q] {
			continue
		}
		seen[q] = true
		queries = append(queries, q)
		if len(nw.Route(q.S, q.T).Waypoints) > 0 {
			planned++
		}
	}
	if planned == 0 {
		t.Fatal("no pair routes around the hole; the batch does not exercise planning")
	}
	k := uint64(len(queries))
	eng := NewEngine(nw, EngineConfig{Workers: 4})
	eng.RouteBatch(queries)
	if st := eng.Stats(); st.Misses != k || st.Hits != 0 || st.Entries != len(queries) || st.Evictions != 0 {
		t.Fatalf("cold pass over %d distinct pairs (%d planned around the hole): %+v, want %d misses and %d entries", k, planned, st, k, k)
	}
	eng.RouteBatch(queries)
	if st := eng.Stats(); st.Hits != k || st.Misses != k || st.Entries != len(queries) {
		t.Fatalf("warm pass: %+v, want %d hits, %d misses and %d entries", st, k, k, k)
	}
}

// TestEngineCacheDisabled checks that a negative CacheSize disables caching
// without changing outcomes.
func TestEngineCacheDisabled(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	rng := rand.New(rand.NewSource(42))
	queries := samplePairsWithRepeats(rng, nw.G.N(), 60)
	eng := NewEngine(nw, EngineConfig{Workers: 3, CacheSize: -1})
	got := eng.RouteBatch(queries)
	for i, q := range queries {
		if want := nw.Route(q.S, q.T); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("query %d: %+v != %+v", i, got[i], want)
		}
	}
	if st := eng.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("disabled cache must stay empty, got %+v", st)
	}
}

// TestEngineLRUEviction bounds the cache: a tiny single-shard LRU must evict
// rather than grow.
func TestEngineLRUEviction(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	eng := NewEngine(nw, EngineConfig{Workers: 1, CacheSize: 4})
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 80; i++ {
		q := Query{S: sim.NodeID(rng.Intn(nw.G.N())), T: sim.NodeID(rng.Intn(nw.G.N()))}
		eng.Route(q.S, q.T)
	}
	st := eng.Stats()
	if st.Entries > 4 {
		t.Errorf("cache grew past its bound: %d entries", st.Entries)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions from a 4-entry cache under 80 random queries")
	}
}

// TestEngineStatsAggregatesShards pins Stats() against the per-shard
// counters on a multi-shard cache: every field — hits, misses, evictions,
// entries — must be the sum over all shards, with more than one shard active.
func TestEngineStatsAggregatesShards(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	eng := NewEngine(nw, EngineConfig{Workers: 1, CacheSize: 8})
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 120; i++ {
		s := sim.NodeID(rng.Intn(nw.G.N()))
		d := sim.NodeID(rng.Intn(nw.G.N()))
		eng.Route(s, d)
		if i%3 == 0 {
			eng.Route(s, d) // immediate repeat: guaranteed cache hit
		}
	}

	var want CacheStats
	active := 0
	for i := range eng.shards {
		sh := &eng.shards[i]
		sh.mu.Lock()
		want.Hits += sh.hits
		want.Misses += sh.misses
		want.Evictions += sh.evictions
		want.Entries += len(sh.entries)
		if sh.hits+sh.misses > 0 {
			active++
		}
		sh.mu.Unlock()
	}
	got := eng.Stats()
	if got != want {
		t.Errorf("Stats() = %+v, want per-shard sum %+v", got, want)
	}
	if active < 2 {
		t.Fatalf("only %d shard(s) active; the aggregation was not exercised", active)
	}
	if got.Hits == 0 || got.Misses == 0 || got.Evictions == 0 {
		t.Errorf("expected nonzero hits/misses/evictions, got %+v", got)
	}
	if got.Entries > 8 {
		t.Errorf("entries %d exceed total cache bound 8", got.Entries)
	}
}

// TestQueueDepthReflectsOutstandingWork pins the queue-depth bugfix: the old
// claim-time emission of `len(queries) - i` made the first claim record the
// full batch size, so hybridroute_engine_queue_depth_max was always exactly
// the batch size — useless as a backpressure signal. Depth is now emitted
// when a worker finishes a query, as genuinely outstanding work (unclaimed
// + in-flight), which is provably at most len(queries)-1: the emitting
// worker's own query is already done.
func TestQueueDepthReflectsOutstandingWork(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	rng := rand.New(rand.NewSource(44))
	queries := samplePairsWithRepeats(rng, nw.G.N(), 64)
	eng := NewEngine(nw, EngineConfig{Workers: 4, CacheSize: 1024})
	tr := trace.New(0)
	eng.SetTracer(tr)
	eng.RouteBatch(queries)

	depths := 0
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KindQueueDepth {
			continue
		}
		depths++
		if ev.Value >= len(queries) {
			t.Fatalf("queue depth event %d >= batch size %d: still the claim-time batch counter", ev.Value, len(queries))
		}
		if ev.Value < 0 {
			t.Fatalf("negative queue depth %d", ev.Value)
		}
	}
	if depths != len(queries) {
		t.Fatalf("expected one queue-depth event per completed query (%d), got %d", len(queries), depths)
	}

	reg := trace.NewRegistry()
	reg.MergeEvents(tr.Events())
	maxDepth := reg.Gauges()["hybridroute_engine_queue_depth_max"]
	if maxDepth >= float64(len(queries)) {
		t.Fatalf("queue depth max gauge %g must be less than batch size %d", maxDepth, len(queries))
	}
	// The earliest completion still sees nearly the whole batch outstanding:
	// at that instant at most `workers` queries have been claimed.
	if maxDepth < float64(len(queries)-eng.Workers()) {
		t.Fatalf("queue depth max gauge %g implausibly low for batch %d / %d workers", maxDepth, len(queries), eng.Workers())
	}
	if eng.InFlight() != 0 {
		t.Fatalf("InFlight = %d after the batch drained, want 0", eng.InFlight())
	}
}

// TestEngineWorkerCounts exercises the pool edge cases: one worker, more
// workers than queries, empty batch.
func TestEngineWorkerCounts(t *testing.T) {
	nw := prepScenario(t, 0.55, 7, 7, 1.5)
	if got := NewEngine(nw, EngineConfig{}).RouteBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d outcomes", len(got))
	}
	queries := []Query{{S: 0, T: sim.NodeID(nw.G.N() - 1)}, {S: 3, T: 3}}
	for _, workers := range []int{1, 2, 64} {
		eng := NewEngine(nw, EngineConfig{Workers: workers})
		got := eng.RouteBatch(queries)
		for i, q := range queries {
			if want := nw.Route(q.S, q.T); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("workers=%d query %d: %+v != %+v", workers, i, got[i], want)
			}
		}
	}
}

// TestConcurrentRouteSharedNetwork fires the same preprocessed Network from
// 8 goroutines — directly and through a shared Engine — so `go test -race`
// verifies the query path is free of data races (the lazily built group
// domains were the known hazard).
func TestConcurrentRouteSharedNetwork(t *testing.T) {
	// The star hole produces bays, so concurrent queries exercise the lazy
	// group-domain construction, exit plans and overlay paths.
	nw := prepStarScenario(t)
	eng := NewEngine(nw, EngineConfig{Workers: 8, CacheSize: 256})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				s := sim.NodeID(rng.Intn(nw.G.N()))
				d := sim.NodeID(rng.Intn(nw.G.N()))
				direct := nw.Route(s, d)
				cached := eng.Route(s, d)
				if direct.Reached != cached.Reached || direct.Case != cached.Case {
					t.Errorf("%d->%d: direct (reached=%v case=%d) != engine (reached=%v case=%d)",
						s, d, direct.Reached, direct.Case, cached.Reached, cached.Case)
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
}

// prepStarScenario preprocesses a deployment around a star-shaped hole
// (non-convex, so it has bay areas and a nontrivial group domain).
func prepStarScenario(t testing.TB) *Network {
	t.Helper()
	star := workload.StarPolygon(geom.Pt(5, 5), 2.6, 1.1, 5, 0)
	sc, err := workload.JitteredGrid(0.5, 10, 10, 1, [][]geom.Point{star})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Preprocess(sc.Build(), Config{Strict: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}
