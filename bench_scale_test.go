// Scale benchmark series: the same hole deployment swept over n = 10⁴, 10⁵
// and 10⁶ nodes, measuring static build time, resident bytes per node and
// warm/cold query throughput. One leg per metric so `benchjson` rows stay
// independently mergeable:
//
//	BenchmarkScale/n=1e4/build   ns/op = one PreprocessStatic, bytes/node
//	BenchmarkScale/n=1e4/cold    ns/op = seven passes of 256 uncached Network.Route queries, queries/sec, us/hop
//	BenchmarkScale/n=1e4/warm    ns/op = seven passes of 256 warm-cache Engine queries, queries/sec
//
// The obstacle geometry is FIXED-size (two polygons near the center), so hole
// boundaries stay O(1) as n grows and the sweep isolates how the flat-arena
// structures scale with node count. The n=10⁵/10⁶ legs are gated behind
// HYBRIDROUTE_SCALE=1 (`make bench-scale`); the 10⁴ leg always runs so every
// `make bench` keeps at least one scale row fresh.
// Run with -benchtime=1x: one build per size and one op of seven passes over
// the query set per query leg are the intended measurement (a single query
// would time the first route alone, with its cold caches and page faults).
// A query leg reports queries/sec from its median pass, so one GC pause or a
// first pass that fills lazy state cannot swing a row. The cold leg's us/hop
// is the median pass time over the hops of a pass's answers: a cold query
// costs about its path's length, so a cache cliff as n grows shows as a
// rising per-hop figure.
package hybridroute_test

import (
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hybridroute/internal/core"
	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

// scaleSizes: side is an exact multiple of the 0.55 grid spacing chosen so
// the bordered grid holds ~n points ((side/0.55+1)² minus the constant
// obstacle interior). The bordered variant keeps the convex hull on the grid
// boundary, so the hole count stays fixed across the sweep (a jittered
// boundary sprouts Θ(√n) sliver holes behind hull bridges, which would make
// the visibility-domain build, cubic in hole corners, dominate every build
// time).
var scaleSizes = []struct {
	name  string
	side  float64
	gated bool // needs HYBRIDROUTE_SCALE=1
}{
	{"n=1e4", 54.45, false}, // 100×100
	{"n=1e5", 173.25, true}, // 316×316
	{"n=1e6", 549.45, true}, // 1000×1000
}

var benchScaleState struct {
	mu     sync.Mutex
	graphs map[string]*udg.Graph
	nws    map[string]*core.Network
}

// benchScaleGraph builds (once per size) the deployment graph shared by the
// build/cold/warm legs.
func benchScaleGraph(b testing.TB, name string, side float64) *udg.Graph {
	b.Helper()
	s := &benchScaleState
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.graphs == nil {
		s.graphs = make(map[string]*udg.Graph)
		s.nws = make(map[string]*core.Network)
	}
	if g, ok := s.graphs[name]; ok {
		return g
	}
	c := side / 2
	obstacles := [][]geom.Point{
		workload.StarPolygon(geom.Pt(c, c+0.2), 1.6, 0.7, 5, 0.3),
		workload.RegularPolygon(geom.Pt(c+4.4, c+3.6), 1.3, 6, 0.2),
	}
	sc, err := workload.BorderedGrid(0.55, side, side, 1, obstacles)
	if err != nil {
		b.Fatal(err)
	}
	g := sc.Build()
	s.graphs[name] = g
	return g
}

// benchScaleNetwork returns the preprocessed network for a size, building it
// once (the build leg measures that cost explicitly and caches the result for
// the query legs).
func benchScaleNetwork(b *testing.B, name string, g *udg.Graph) *core.Network {
	b.Helper()
	s := &benchScaleState
	s.mu.Lock()
	nw, ok := s.nws[name]
	s.mu.Unlock()
	if ok {
		return nw
	}
	nw, err := core.PreprocessStatic(g, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	s.mu.Lock()
	s.nws[name] = nw
	s.mu.Unlock()
	return nw
}

// scalePasses is the number of passes over the query set in one op of a
// query leg.
const scalePasses = 7

// medianPass runs pass scalePasses times per op and returns the median pass
// time in seconds.
func medianPass(b *testing.B, pass func()) float64 {
	times := make([]float64, 0, b.N*scalePasses)
	for i := 0; i < b.N; i++ {
		for range scalePasses {
			start := time.Now()
			pass()
			times = append(times, time.Since(start).Seconds())
		}
	}
	slices.Sort(times)
	return times[len(times)/2]
}

func scaleQueries(n, q int) []core.Query {
	rng := rand.New(rand.NewSource(23))
	hot := make([]core.Query, 16)
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

func heapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func BenchmarkScale(b *testing.B) {
	for _, sz := range scaleSizes {
		sz := sz
		b.Run(sz.name, func(b *testing.B) {
			if sz.gated && os.Getenv("HYBRIDROUTE_SCALE") == "" {
				b.Skip("set HYBRIDROUTE_SCALE=1 (make bench-scale) for the full series")
			}
			g := benchScaleGraph(b, sz.name, sz.side)

			b.Run("build", func(b *testing.B) {
				before := heapBytes()
				var nw *core.Network
				var err error
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nw, err = core.PreprocessStatic(g, core.Config{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after := heapBytes()
				if after > before {
					b.ReportMetric(float64(after-before)/float64(g.N()), "bytes/node")
				}
				benchScaleState.mu.Lock()
				benchScaleState.nws[sz.name] = nw // reuse for the query legs
				benchScaleState.mu.Unlock()
			})

			nw := benchScaleNetwork(b, sz.name, g)
			queries := scaleQueries(g.N(), 256)

			// One op of a query leg is scalePasses passes over the query set.
			perSec := func(b *testing.B, sec float64) {
				b.ReportMetric(float64(len(queries))/sec, "queries/sec")
			}

			b.Run("cold", func(b *testing.B) {
				hops := 0
				b.ResetTimer()
				sec := medianPass(b, func() {
					hops = 0
					for _, q := range queries {
						hops += nw.Route(q.S, q.T).Hops()
					}
				})
				b.StopTimer()
				perSec(b, sec)
				if hops > 0 {
					b.ReportMetric(sec*1e6/float64(hops), "us/hop")
				}
			})

			b.Run("warm", func(b *testing.B) {
				eng := core.NewEngine(nw, core.EngineConfig{})
				eng.RouteBatch(queries) // populate the outcome cache
				b.ReportAllocs()
				b.ResetTimer()
				sec := medianPass(b, func() {
					for _, q := range queries {
						eng.Route(q.S, q.T)
					}
				})
				b.StopTimer()
				perSec(b, sec)
			})
		})
	}
}
