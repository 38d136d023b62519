// Benchmarks: one per experiment of DESIGN.md §4 (E1–E10). Each benchmark
// runs the corresponding experiment harness end to end in quick mode, so
// `go test -bench=. -benchmem` regenerates every table the reproduction
// reports; cmd/experiments prints the full-size variants.
package hybridroute_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hybridroute/internal/core"
	"hybridroute/internal/delaunay"
	"hybridroute/internal/expt"
	"hybridroute/internal/geom"
	"hybridroute/internal/routing"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
	"hybridroute/internal/udg"
	"hybridroute/internal/vis"
	"hybridroute/internal/workload"
)

func benchExperiment(b *testing.B, fn func(expt.Options) (*expt.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := fn(expt.Options{Quick: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Pass {
			b.Fatalf("%s claim check failed:\n%s", r.ID, r.Table)
		}
	}
}

// BenchmarkE1Preprocess measures the full preprocessing pipeline round
// complexity sweep (Theorem 1.2: O(log² n) rounds, polylog work per node).
func BenchmarkE1Preprocess(b *testing.B) { benchExperiment(b, expt.E1) }

// BenchmarkE2Stretch measures routing stretch of the hull router, the
// visibility-graph router and the online baselines (Sections 3/4).
func BenchmarkE2Stretch(b *testing.B) { benchExperiment(b, expt.E2) }

// BenchmarkE3Storage measures the per-node-class storage bounds of
// Theorem 1.2 as density grows at fixed hole geometry.
func BenchmarkE3Storage(b *testing.B) { benchExperiment(b, expt.E3) }

// BenchmarkE4HullRounds measures ring-protocol rounds against ring size
// (Theorem 5.3).
func BenchmarkE4HullRounds(b *testing.B) { benchExperiment(b, expt.E4) }

// BenchmarkE5Hypercube verifies the per-phase round budget of the ring
// suite (Lemma 5.2).
func BenchmarkE5Hypercube(b *testing.B) { benchExperiment(b, expt.E5) }

// BenchmarkE6Sort verifies the bitonic sorting network depth D(D+1)/2.
func BenchmarkE6Sort(b *testing.B) { benchExperiment(b, expt.E6) }

// BenchmarkE7DomSet measures dominating set approximation and rounds on
// rings (Section 5.6).
func BenchmarkE7DomSet(b *testing.B) { benchExperiment(b, expt.E7) }

// BenchmarkE8Dynamic measures setup vs recompute rounds under mobility
// (Section 6).
func BenchmarkE8Dynamic(b *testing.B) { benchExperiment(b, expt.E8) }

// BenchmarkE9HullSize measures the abstraction-size chain of Lemmas 4.2/4.4.
func BenchmarkE9HullSize(b *testing.B) { benchExperiment(b, expt.E9) }

// BenchmarkE10Baselines measures greedy failure and the LDel² spanner ratio
// on the adversarial maze (§1, Theorem 2.9).
func BenchmarkE10Baselines(b *testing.B) { benchExperiment(b, expt.E10) }

// BenchmarkE11IntersectingHulls measures the intersecting-hulls extension
// (paper §7 future work): merged hull groups keep routing correct.
func BenchmarkE11IntersectingHulls(b *testing.B) { benchExperiment(b, expt.E11) }

// BenchmarkE12Incremental measures incremental recomputation under bounded
// churn versus full recomputation (paper §7 future work).
func BenchmarkE12Incremental(b *testing.B) { benchExperiment(b, expt.E12) }

// BenchmarkE13Ablation measures the abstraction representation ablation:
// boundary vs locally convex hull vs convex hull (§4.1).
func BenchmarkE13Ablation(b *testing.B) { benchExperiment(b, expt.E13) }

// BenchmarkE14Economy measures long-range word budgets of the hybrid scheme
// versus the central-server strawman of the introduction.
func BenchmarkE14Economy(b *testing.B) { benchExperiment(b, expt.E14) }

// BenchmarkE15Engine runs the batch-engine experiment (sequential vs cold vs
// warm engine on the same workload).
func BenchmarkE15Engine(b *testing.B) { benchExperiment(b, expt.E15) }

// BenchmarkE16Faults runs the fault-injection delivery sweep (loss rates plus
// crashed nodes, retry/replan transport on the simulator).
func BenchmarkE16Faults(b *testing.B) { benchExperiment(b, expt.E16) }

// BenchmarkE17LossAware runs the loss-aware planning comparison (retry-through
// vs ETX plan-around on the lossy-region corridor).
func BenchmarkE17LossAware(b *testing.B) { benchExperiment(b, expt.E17) }

// BenchmarkE18Trace runs the traced-query observability demo (byte-identity
// check plus per-hop report assembly on the lossy corridor).
func BenchmarkE18Trace(b *testing.B) { benchExperiment(b, expt.E18) }

// BenchmarkE19Churn runs the churn robustness sweep (seeded crash/recover
// schedule against a traced query batch, with topology repair and suspect
// failover).
func BenchmarkE19Churn(b *testing.B) { benchExperiment(b, expt.E19) }

// BenchmarkE20Abstraction runs the hole-abstraction backend comparison
// (convex hull vs bounding-box overlay on disjoint/overlapping/nested hole
// hull families).
func BenchmarkE20Abstraction(b *testing.B) { benchExperiment(b, expt.E20) }

// BenchmarkE22Adversary runs the Byzantine adversary sweep (verified
// delivery against misrouting/dropping/ack-forging/telemetry-lying nodes,
// plus the colluding-endpoints row).
func BenchmarkE22Adversary(b *testing.B) { benchExperiment(b, expt.E22) }

// --- hole abstraction backend micro-benchmarks ---
//
// One op = answering a 128-query workload over a preprocessed network on the
// interlocking-hulls deployment (an L-shape wrapping a bar, hole hulls
// properly intersecting) under one backend. The hull/bbox pair prices the
// bounding-box overlay relative to the default on the geometry it targets.

var benchAbsState struct {
	once sync.Once
	nws  map[string]*core.Network
	qs   []core.Query
	err  error
}

func benchAbstractionSetup(b *testing.B, backend string) (*core.Network, []core.Query) {
	b.Helper()
	s := &benchAbsState
	s.once.Do(func() {
		obstacles := [][]geom.Point{
			{geom.Pt(3, 3), geom.Pt(8, 3), geom.Pt(8, 4.2), geom.Pt(4.2, 4.2), geom.Pt(4.2, 8), geom.Pt(3, 8)},
			{geom.Pt(5.8, 5.4), geom.Pt(9.2, 5.4), geom.Pt(9.2, 6.6), geom.Pt(5.8, 6.6)},
		}
		sc, err := workload.JitteredGrid(0.5, 10, 10, 1, obstacles)
		if err != nil {
			s.err = err
			return
		}
		s.nws = make(map[string]*core.Network)
		for _, name := range []string{"hull", "bbox"} {
			nw, err := core.Preprocess(sc.Build(), core.Config{Strict: true, Seed: 4, Abstraction: name})
			if err != nil {
				s.err = err
				return
			}
			s.nws[name] = nw
		}
		rng := rand.New(rand.NewSource(11))
		n := s.nws["hull"].G.N()
		for len(s.qs) < 128 {
			s.qs = append(s.qs, core.Query{S: sim.NodeID(rng.Intn(n)), T: sim.NodeID(rng.Intn(n))})
		}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.nws[backend], s.qs
}

// BenchmarkAbstractionRouteHull routes the intersecting-hulls workload under
// the default convex-hull backend (merged hull groups).
func BenchmarkAbstractionRouteHull(b *testing.B) {
	nw, queries := benchAbstractionSetup(b, "hull")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			nw.Route(q.S, q.T)
		}
	}
}

// BenchmarkAbstractionRouteBBox routes the identical workload under the
// bounding-box overlay backend (merged boxes, corner waypoints).
func BenchmarkAbstractionRouteBBox(b *testing.B) {
	nw, queries := benchAbstractionSetup(b, "bbox")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			nw.Route(q.S, q.T)
		}
	}
}

// --- batch engine micro-benchmarks ---
//
// One op = answering the same 256-query workload (half hot-set repeats, half
// random pairs) over a shared preprocessed network, so per-op times compare
// directly: sequential Route loop vs the engine with a cold cache each op vs
// the engine reused (warm cache). EXPERIMENTS.md records a reference run.

var benchEngineState struct {
	once    sync.Once
	nw      *core.Network
	queries []core.Query
	err     error
}

func benchEngineSetup(b *testing.B) (*core.Network, []core.Query) {
	b.Helper()
	s := &benchEngineState
	s.once.Do(func() {
		side := math.Sqrt(600) * 0.42
		obstacles := workload.RandomConvexObstacles(1, 3, side, side, side/8, side/5, 1.2)
		sc, err := workload.WithObstacles(1, 600, side, side, 1, obstacles)
		if err != nil {
			s.err = err
			return
		}
		s.nw, s.err = core.Preprocess(sc.Build(), core.Config{Strict: true, Seed: 1})
		if s.err != nil {
			return
		}
		rng := rand.New(rand.NewSource(7))
		hot := make([]core.Query, 12)
		for i := range hot {
			hot[i] = core.Query{S: sim.NodeID(rng.Intn(s.nw.G.N())), T: sim.NodeID(rng.Intn(s.nw.G.N()))}
		}
		for len(s.queries) < 256 {
			if rng.Intn(2) == 0 {
				s.queries = append(s.queries, hot[rng.Intn(len(hot))])
			} else {
				s.queries = append(s.queries, core.Query{
					S: sim.NodeID(rng.Intn(s.nw.G.N())),
					T: sim.NodeID(rng.Intn(s.nw.G.N())),
				})
			}
		}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.nw, s.queries
}

// BenchmarkRouteSequential is the baseline: one Network.Route call per query.
func BenchmarkRouteSequential(b *testing.B) {
	nw, queries := benchEngineSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			nw.Route(q.S, q.T)
		}
	}
}

// BenchmarkEngineBatchCold pays the full planning cost every op: a fresh
// engine (empty cache) per iteration isolates the worker-pool speedup.
func BenchmarkEngineBatchCold(b *testing.B) {
	nw, queries := benchEngineSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(nw, core.EngineConfig{})
		eng.RouteBatch(queries)
	}
}

// BenchmarkEngineBatch reuses one engine across ops (warm answer cache): the
// acceptance configuration, expected ≥ 2x over BenchmarkRouteSequential on a
// multi-core runner.
func BenchmarkEngineBatch(b *testing.B) {
	nw, queries := benchEngineSetup(b)
	eng := core.NewEngine(nw, core.EngineConfig{})
	eng.RouteBatch(queries) // warm the cache outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RouteBatch(queries)
	}
}

// --- churn repair micro-benchmarks ---
//
// A separate network from the engine benchmarks, so crash/recover cycles
// here never perturb those measurements. One repair = clone the pristine
// triangulation, detach the victim, re-run hole detection (reusing derived
// geometry for untouched holes) and rebuild the overlay structures.

var benchChurnState struct {
	once    sync.Once
	nw      *core.Network
	queries []core.Query
	err     error
}

func benchChurnSetup(b *testing.B) (*core.Network, []core.Query) {
	b.Helper()
	s := &benchChurnState
	s.once.Do(func() {
		side := math.Sqrt(600) * 0.42
		obstacles := workload.RandomConvexObstacles(2, 3, side, side, side/8, side/5, 1.2)
		sc, err := workload.WithObstacles(2, 600, side, side, 1, obstacles)
		if err != nil {
			s.err = err
			return
		}
		s.nw, s.err = core.Preprocess(sc.Build(), core.Config{Strict: true, Seed: 2})
		if s.err != nil {
			return
		}
		rng := rand.New(rand.NewSource(19))
		for len(s.queries) < 128 {
			s.queries = append(s.queries, core.Query{
				S: sim.NodeID(rng.Intn(s.nw.G.N())),
				T: sim.NodeID(rng.Intn(s.nw.G.N())),
			})
		}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.nw, s.queries
}

// BenchmarkChurnRepair measures topology-repair latency: one op is a full
// crash+recover cycle of one node, i.e. one repair plus one pristine
// restore, both advancing the topology generation.
func BenchmarkChurnRepair(b *testing.B) {
	nw, _ := benchChurnSetup(b)
	victim := sim.NodeID(nw.G.N() / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nw.Sim.Crash(victim); err != nil {
			b.Fatal(err)
		}
		if err := nw.Sim.Recover(victim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBatchChurned measures cache invalidation overhead: a
// crash+recover cycle between batches bumps the topology generation twice,
// so every answer of the warm cache becomes unaddressable and the op
// replans the whole batch. Compare against BenchmarkEngineBatchStable below
// (same network and batch, no churn) to price the invalidation.
func BenchmarkEngineBatchChurned(b *testing.B) {
	nw, queries := benchChurnSetup(b)
	victim := sim.NodeID(nw.G.N() / 2)
	eng := core.NewEngine(nw, core.EngineConfig{})
	eng.RouteBatch(queries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nw.Sim.Crash(victim); err != nil {
			b.Fatal(err)
		}
		if err := nw.Sim.Recover(victim); err != nil {
			b.Fatal(err)
		}
		eng.RouteBatch(queries)
	}
}

// BenchmarkEngineBatchStable is the control for BenchmarkEngineBatchChurned:
// the identical warm batch on the same churn-benchmark network with the
// topology left alone.
func BenchmarkEngineBatchStable(b *testing.B) {
	nw, queries := benchChurnSetup(b)
	eng := core.NewEngine(nw, core.EngineConfig{})
	eng.RouteBatch(queries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RouteBatch(queries)
	}
}

// BenchmarkEngineBatchTraced is BenchmarkEngineBatch with the tracer
// installed: the gap between the two prices the observability layer when ON.
// (When disabled — the default — the only cost is a nil check per emit site;
// compare BenchmarkEngineBatch across commits for the ≤ 2% acceptance bound.)
func BenchmarkEngineBatchTraced(b *testing.B) {
	nw, queries := benchEngineSetup(b)
	eng := core.NewEngine(nw, core.EngineConfig{})
	tr := trace.New(0)
	eng.SetTracer(tr)
	eng.RouteBatch(queries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		eng.RouteBatch(queries)
	}
}

// BenchmarkChewCorridor prices Chew's walk alone: one op is one Router.Chew
// over the next of 512 fixed random pairs on a bordered grid (spacing 0.55)
// with the scale series' two central obstacles, so the mix holds delivered
// walks and hole hits. The 41×41-point leg
// fits in cache; the 316×316-point leg is the field-cold deployment, whose
// face table and its adjacency do not, so it also prices the memory reads of
// the walk from face to face. us/hop is the timed loop over the hops of the
// paths it answered, as in BenchmarkScale's cold leg.
func BenchmarkChewCorridor(b *testing.B) {
	for _, leg := range []struct {
		name string
		side float64
	}{{"grid=41x41", 22}, {"grid=316x316", 173.25}} {
		var r *routing.Router
		var pairs [][2]routing.NodeID
		b.Run(leg.name, func(b *testing.B) {
			if r == nil { // built once, not on every calibration round
				c := leg.side / 2
				obstacles := [][]geom.Point{
					workload.StarPolygon(geom.Pt(c, c+0.2), 1.6, 0.7, 5, 0.3),
					workload.RegularPolygon(geom.Pt(c+4.4, c+3.6), 1.3, 6, 0.2),
				}
				sc, err := workload.BorderedGrid(0.55, leg.side, leg.side, 1, obstacles)
				if err != nil {
					b.Fatal(err)
				}
				r = routing.New(delaunay.LDel2Fast(sc.Build()))
				rng := rand.New(rand.NewSource(7))
				n := r.Graph().N()
				pairs = make([][2]routing.NodeID, 512)
				for i := range pairs {
					pairs[i] = [2]routing.NodeID{routing.NodeID(rng.Intn(n)), routing.NodeID(rng.Intn(n))}
				}
			}
			hops := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				chewSink = r.Chew(p[0], p[1])
				hops += chewSink.Hops()
			}
			b.StopTimer()
			if hops > 0 {
				b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(hops), "us/hop")
			}
		})
	}
}

var chewSink routing.Result

// BenchmarkOverlayWaypoints prices the overlay search of Section 4.3 alone:
// one op is one hull-backend Waypoints call over the next of 512 fixed
// searches from the node where Chew's walk hit a hole to the query's
// target. The deployment is the holes-cold benchmark's: a 151×151-point
// bordered grid of spacing 0.55 with 24 disjoint convex holes. Searches
// are taken where Network.Route takes them: both endpoints and the hit node
// outside every hull group.
func BenchmarkOverlayWaypoints(b *testing.B) {
	nw, searches := benchOverlaySetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := searches[i%len(searches)]
		waypointSink, _, _ = nw.Abs.Waypoints(q[0], q[1])
	}
}

// BenchmarkOverlayWaypointsFirst prices the searches whose source row is
// not filled yet, which BenchmarkOverlayWaypoints meets only on its first
// pass: one op is the first search from a hit node on a freshly built hull
// overlay, so the search fills that corner's link row. The searches are
// BenchmarkOverlayWaypoints', the first one from each distinct hit node, and
// the overlay is rebuilt over the same hulls, outside the timer, before each
// pass over them.
func BenchmarkOverlayWaypointsFirst(b *testing.B) {
	nw, searches := benchOverlaySetup(b)
	seen := make(map[geom.Point]bool)
	var first [][2]geom.Point
	for _, q := range searches {
		if !seen[q[0]] {
			seen[q[0]] = true
			first = append(first, q)
		}
	}
	var o *vis.Overlay
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(first) == 0 {
			b.StopTimer()
			o = vis.NewOverlay(nw.Overlay.Obstacles())
			b.StartTimer()
		}
		q := first[i%len(first)]
		waypointSink, _, _ = o.ShortestPath(q[0], q[1])
	}
}

var waypointSink []geom.Point

// benchOverlayState is built once, not on every calibration round.
var benchOverlayState struct {
	once     sync.Once
	nw       *core.Network
	searches [][2]geom.Point
	err      error
}

func benchOverlaySetup(b *testing.B) (*core.Network, [][2]geom.Point) {
	b.Helper()
	s := &benchOverlayState
	s.once.Do(func() {
		const side = 82.5
		obstacles := workload.RandomConvexObstacles(2, 24, side, side, 0.8, 1.6, 2)
		sc, err := workload.BorderedGrid(0.55, side, side, 1, obstacles)
		if err != nil {
			s.err = err
			return
		}
		nw, err := core.PreprocessStatic(udg.Build(sc.Points, sc.Radius), core.Config{})
		if err != nil {
			s.err = err
			return
		}
		outside := func(v sim.NodeID) bool { return nw.Abs.RegionAt(nw.G.Point(v)) < 0 }
		rng := rand.New(rand.NewSource(7))
		for len(s.searches) < 512 {
			src, dst := sim.NodeID(rng.Intn(nw.G.N())), sim.NodeID(rng.Intn(nw.G.N()))
			if !outside(src) || !outside(dst) {
				continue
			}
			if res := nw.Router.Chew(src, dst); res.HoleHit && outside(res.HitNode) {
				s.searches = append(s.searches, [2]geom.Point{nw.G.Point(res.HitNode), nw.G.Point(dst)})
			}
		}
		s.nw = nw
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.nw, s.searches
}
