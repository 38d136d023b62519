package core

import (
	"reflect"
	"testing"

	"hybridroute/internal/sim"
)

// TestSpliceTail pins the junction merge: the tail's first node is dropped
// only when it repeats the head's last node (merge by value). The old
// positional splice dropped tail[0] unconditionally, corrupting paths whose
// tail did not start at the junction.
func TestSpliceTail(t *testing.T) {
	ids := func(vs ...sim.NodeID) []sim.NodeID { return vs }
	cases := []struct {
		name       string
		head, tail []sim.NodeID
		want       []sim.NodeID
	}{
		{"shared junction", ids(1, 2, 3), ids(3, 4, 5), ids(1, 2, 3, 4, 5)},
		{"no junction", ids(1, 2), ids(7, 8), ids(1, 2, 7, 8)},
		{"empty head", nil, ids(4, 5), ids(4, 5)},
		{"empty tail", ids(1, 2), nil, ids(1, 2)},
		{"both empty", nil, nil, ids()},
		{"single-node tail matching", ids(1, 2), ids(2), ids(1, 2)},
		{"single-node tail distinct", ids(1, 2), ids(9), ids(1, 2, 9)},
		{"single-node head", ids(3), ids(3, 4), ids(3, 4)},
		{"repeat inside kept", ids(1, 2, 1), ids(1, 2), ids(1, 2, 1, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := spliceTail(tc.head, tc.tail)
			if len(got) != len(tc.want) {
				t.Fatalf("spliceTail(%v, %v) = %v, want %v", tc.head, tc.tail, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("spliceTail(%v, %v) = %v, want %v", tc.head, tc.tail, got, tc.want)
				}
			}
		})
	}
}

// TestSpliceTailDoesNotAliasHead pins that the result is a fresh slice:
// appending to it must never write into the head's backing array.
func TestSpliceTailDoesNotAliasHead(t *testing.T) {
	head := make([]sim.NodeID, 2, 8)
	head[0], head[1] = 1, 2
	out := spliceTail(head, []sim.NodeID{2, 3})
	out = append(out, 99)
	_ = out
	if head[0] != 1 || head[1] != 2 {
		t.Fatalf("head mutated through splice result: %v", head[:cap(head)])
	}
}

// findWaypointPair returns a query whose outcome carries a non-empty
// waypoint plan, so cache tests exercise both Path and Waypoints copies.
func findWaypointPair(t *testing.T, nw *Network) (sim.NodeID, sim.NodeID) {
	t.Helper()
	n := nw.G.N()
	step := n/40 + 1
	for s := 0; s < n; s += step {
		for d := 0; d < n; d += step {
			tt := (s + n/2 + d) % n
			out := nw.Route(sim.NodeID(s), sim.NodeID(tt))
			if out.Reached && len(out.Waypoints) > 0 {
				return sim.NodeID(s), sim.NodeID(tt)
			}
		}
	}
	t.Fatal("no query with waypoints found in scenario")
	return 0, 0
}

// TestEngineCacheHitReturnsPrivateSlices is the cache-isolation regression
// test: mutating the Path/Waypoints of a returned Outcome — whether it came
// from a cold miss or a warm hit — must not corrupt what later queries get.
// Run under -race this also pins that concurrent warm hits never share
// mutable state.
func TestEngineCacheHitReturnsPrivateSlices(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, tt := findWaypointPair(t, nw)
	want := nw.Route(s, tt)

	eng := NewEngine(nw, EngineConfig{})
	first := eng.Route(s, tt) // cold miss: computed and stored
	for i := range first.Path {
		first.Path[i] = -7
	}
	for i := range first.Waypoints {
		first.Waypoints[i] = -7
	}
	second := eng.Route(s, tt) // warm hit
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("warm outcome corrupted by mutating the cold result:\ngot  %+v\nwant %+v", second, want)
	}
	for i := range second.Path {
		second.Path[i] = -9
	}
	for i := range second.Waypoints {
		second.Waypoints[i] = -9
	}
	third := eng.Route(s, tt) // warm hit after mutating a warm result
	if !reflect.DeepEqual(third, want) {
		t.Fatalf("warm outcome corrupted by mutating a previous warm result:\ngot  %+v\nwant %+v", third, want)
	}
}

// TestShardOfDistribution pins that the key mixer spreads realistic keys
// evenly: over a grid of (gen, a, b) keys no shard may receive more than
// twice the mean load.
func TestShardOfDistribution(t *testing.T) {
	const shards = cacheShards
	counts := make([]int, shards)
	total := 0
	for gen := uint64(0); gen < 4; gen++ {
		for a := 0; a < 64; a++ {
			for b := 0; b < 64; b++ {
				k := planKey{a: sim.NodeID(a), b: sim.NodeID(b), gen: gen}
				counts[shardOf(k, shards)]++
				total++
			}
		}
	}
	mean := float64(total) / shards
	for i, c := range counts {
		if float64(c) > 2*mean {
			t.Fatalf("shard %d holds %d keys, more than 2x the mean %.1f", i, c, mean)
		}
	}
}

// TestPlanKeyAbstractionIsolation pins that keys differing only in the
// abstraction backend ID address different cache entries: an answer stored
// under one backend must never be served to another.
func TestPlanKeyAbstractionIsolation(t *testing.T) {
	nw := prepScenario(t, 0.55, 6, 6, 1.2)
	eng := NewEngine(nw, EngineConfig{})
	k1 := planKey{abs: 1, a: 3, b: 9}
	k2 := planKey{abs: 2, a: 3, b: 9}
	if k1 == k2 {
		t.Fatal("keys differing only in abs compare equal")
	}
	eng.store(k1, &Outcome{Waypoints: []sim.NodeID{3, 5, 9}})
	if _, hit := eng.lookup(k2); hit {
		t.Fatal("answer stored under backend 1 served to backend 2")
	}
	if v, hit := eng.lookup(k1); !hit || len(v.Waypoints) != 3 {
		t.Fatal("answer stored under backend 1 lost")
	}
}

// TestEngineRouteZeroAllocsWarm is the hot-path gate: once the outcome cache
// is warm, Engine.Route must not allocate (the arena amortizes its block
// allocations below AllocsPerRun's integer resolution).
func TestEngineRouteZeroAllocsWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not short")
	}
	if raceDetector {
		// The race runtime's sync.Pool drops a share of Puts on purpose, so
		// the warm path re-makes its pooled scratch arena at random.
		t.Skip("allocation gate needs sync.Pool without the race detector")
	}
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, tt := findWaypointPair(t, nw)
	eng := NewEngine(nw, EngineConfig{})
	for i := 0; i < 3; i++ {
		eng.Route(s, tt) // warm the outcome cache, scratch pool and arena
	}
	allocs := testing.AllocsPerRun(500, func() {
		out := eng.Route(s, tt)
		if !out.Reached {
			t.Fatal("warm route failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Engine.Route allocates %.3f times per call, want 0", allocs)
	}
}
