package expt

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hybridroute/internal/core"
	"hybridroute/internal/sim"
	"hybridroute/internal/stats"
)

// engineWorkload draws a query batch with a hot set: half the queries repeat
// a small set of popular pairs (the serving-traffic shape the batch engine's
// answer cache targets), half are fresh random pairs.
func engineWorkload(rng *rand.Rand, n, q int) []core.Query {
	hot := make([]core.Query, 12)
	for i := range hot {
		hot[i] = core.Query{S: sim.NodeID(rng.Intn(n)), T: sim.NodeID(rng.Intn(n))}
	}
	out := make([]core.Query, 0, q)
	for len(out) < q {
		if rng.Intn(2) == 0 {
			out = append(out, hot[rng.Intn(len(hot))])
		} else {
			out = append(out, core.Query{S: sim.NodeID(rng.Intn(n)), T: sim.NodeID(rng.Intn(n))})
		}
	}
	return out
}

// E15 measures the concurrent batch-routing engine: the same query workload
// answered (a) sequentially via Network.Route, (b) by the engine with a cold
// answer cache, and (c) by the engine warm. The paper's preprocessing exists
// so that per-query work is cheap and reusable; the engine realizes that as
// a serving-shaped system, and this experiment checks it changes only the
// speed, never the answers.
func E15(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E15",
		Title: "Batch engine: concurrent routing with plan caching",
		Claim: "after preprocessing, batched queries are answered from shared read-only state: outcomes identical to sequential routing, throughput scales with workers and cache warmth",
	}
	n, q := 600, 600
	if opt.Quick {
		n, q = 300, 250
	}
	nw, _, err := preprocessScenario(opt, n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.seed() + 15))
	queries := engineWorkload(rng, nw.G.N(), q)

	seqStart := time.Now()
	seq := make([]core.Outcome, len(queries))
	for i, qu := range queries {
		seq[i] = nw.Route(qu.S, qu.T)
	}
	seqDur := time.Since(seqStart)

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := core.NewEngine(nw, core.EngineConfig{Workers: workers})
	coldStart := time.Now()
	cold := eng.RouteBatch(queries)
	coldDur := time.Since(coldStart)
	coldStats := eng.Stats()
	warmStart := time.Now()
	warm := eng.RouteBatch(queries)
	warmDur := time.Since(warmStart)
	// Which worker misses a repeated pair first varies from run to run, so
	// the cold pass's hit count does; the answers cached and the warm
	// pass's hits do not.
	warmHits := eng.Stats().Hits - coldStats.Hits

	identical := true
	for i := range queries {
		if !outcomesEquivalent(seq[i], cold[i]) || !outcomesEquivalent(seq[i], warm[i]) {
			identical = false
			break
		}
	}
	qps := func(d time.Duration) float64 { return float64(q) / d.Seconds() }
	res.Table = stats.NewTable("mode", "workers", "time", "queries/s", "speedup")
	res.Table.AddRow("sequential Route", 1, seqDur.Round(time.Microsecond), fmt.Sprintf("%.0f", qps(seqDur)), 1.0)
	res.Table.AddRow("engine cold cache", workers, coldDur.Round(time.Microsecond), fmt.Sprintf("%.0f", qps(coldDur)),
		fmt.Sprintf("%.2f", seqDur.Seconds()/coldDur.Seconds()))
	res.Table.AddRow("engine warm cache", workers, warmDur.Round(time.Microsecond), fmt.Sprintf("%.0f", qps(warmDur)),
		fmt.Sprintf("%.2f", seqDur.Seconds()/warmDur.Seconds()))
	res.note("answer cache: %d answers cached by the cold pass, warm pass %d/%d hits",
		coldStats.Entries, warmHits, q)
	res.note("warm speedup %.2fx over sequential (%d workers, GOMAXPROCS %d)",
		seqDur.Seconds()/warmDur.Seconds(), workers, runtime.GOMAXPROCS(0))
	// Pass on correctness (identical outcomes, every warm query a cache
	// hit); the speedup is recorded but not gated here — wall-clock ratios
	// belong to the benchmarks, where the runner is controlled.
	res.Pass = identical && warmHits == uint64(q)
	return res, nil
}

// outcomesEquivalent compares everything observable about two outcomes.
func outcomesEquivalent(a, b core.Outcome) bool {
	if a.Case != b.Case || a.LongRange != b.LongRange || a.PlanFallback != b.PlanFallback ||
		a.Reached != b.Reached || a.Stuck != b.Stuck || a.Fallback != b.Fallback ||
		len(a.Path) != len(b.Path) || len(a.Waypoints) != len(b.Waypoints) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	for i := range a.Waypoints {
		if a.Waypoints[i] != b.Waypoints[i] {
			return false
		}
	}
	return true
}
