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
	"hybridroute/internal/expt"
	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
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
// schedule against a traced query batch, with incremental repair and
// suspect failover).
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

// BenchmarkEngineBatch reuses one engine across ops (warm plan cache): the
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
// crash+recover cycle of one node, i.e. one incremental (or full) repair
// plus one pristine restore, both advancing the topology generation.
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

// BenchmarkEngineBatchChurned measures plan-cache invalidation overhead: a
// crash+recover cycle between batches bumps the topology generation twice,
// so every plan fragment of the warm cache becomes unaddressable and the op
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
