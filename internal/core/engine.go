// The batch-routing engine: after the one-time preprocessing of Section 5,
// every structure a query touches (LDel², router faces, hulls, bays, overlay
// graphs, visibility domains) is read-only, so a node can answer many
// queries from stored state — the serving model the paper's abstraction
// exists to amortize. Engine exploits that: it answers query batches on a
// worker pool over one shared Network and keeps the expensive reusable
// sub-results of plan construction (per-group geodesics, hull exit plans,
// overlay waypoint paths) in a bounded, sharded LRU cache so repeated and
// clustered queries skip recomputation.

package core

import (
	"container/list"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
)

// Query is one routing request for the batch engine.
type Query struct {
	S, T sim.NodeID
}

// EngineConfig tunes the batch engine.
type EngineConfig struct {
	// Workers is the routing worker pool size; <= 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the total number of cached plan entries across all
	// shards; 0 means the default (4096), negative disables caching (the
	// pool still routes concurrently).
	CacheSize int
	// Shards is the number of cache shards (each with its own lock); <= 0
	// means the default (16). More shards reduce lock contention.
	Shards int
}

// CacheStats reports plan-cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Engine answers routing queries over a preprocessed Network concurrently.
// The Network (and everything reachable from it on the query path) is
// treated as shared read-only state; the engine's only mutable state is the
// sharded plan cache. An Engine is safe for concurrent use and multiple
// engines may share one Network.
type Engine struct {
	nw      *Network
	workers int
	shards  []cacheShard
	// scratch pools per-worker arenas for copying cached outcomes on the warm
	// path without per-call heap allocation.
	scratch sync.Pool
	// tracer is the installed event recorder (nil: tracing disabled). The
	// engine emits cache hit/miss/evict events per plan-fragment lookup and
	// worker-queue depth events while draining a batch.
	tracer *trace.Tracer
	// inflight counts Route calls currently executing, across every caller
	// (batch workers and direct Route calls alike). It is the engine's
	// contribution to the queue-depth signal: outstanding work is what is
	// still unclaimed plus what is in flight, and a serving layer polls it to
	// know when the engine has quiesced during a drain.
	inflight atomic.Int64
}

// routeScratch is the pooled per-call working memory of a warm-cache Route.
type routeScratch struct {
	ids *mem.Arena[sim.NodeID]
}

// NewEngine builds a batch engine over a preprocessed network.
func NewEngine(nw *Network, cfg EngineConfig) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := cfg.CacheSize
	if size == 0 {
		size = 4096
	}
	e := &Engine{nw: nw, workers: workers}
	e.scratch.New = func() interface{} {
		return &routeScratch{ids: mem.NewArena[sim.NodeID](0)}
	}
	if size > 0 {
		shards := cfg.Shards
		if shards <= 0 {
			shards = 16
		}
		if shards > size {
			shards = size
		}
		per := (size + shards - 1) / shards
		e.shards = make([]cacheShard, shards)
		for i := range e.shards {
			e.shards[i].cap = per
			e.shards[i].entries = make(map[planKey]*list.Element, per)
			e.shards[i].order = list.New()
		}
	}
	return e
}

// Network returns the shared preprocessed network.
func (e *Engine) Network() *Network { return e.nw }

// Workers returns the effective worker pool size.
func (e *Engine) Workers() int { return e.workers }

// InFlight returns the number of Route calls currently executing. A serving
// layer reads it as a live load signal and to confirm the engine has
// quiesced while draining.
func (e *Engine) InFlight() int { return int(e.inflight.Load()) }

// SetTracer installs (nil: removes) the event recorder for the engine's own
// events (cache effectiveness, worker-queue depth). It does not touch the
// shared Network's tracer — call Network().SetTracer for transport and
// simulator events. Tracing never changes outcomes or cache behaviour.
func (e *Engine) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// label names the cached planner in trace events.
func (e *Engine) label() string { return "engine" }

// Route answers a single query through the plan cache. The outcome is
// identical to Network.Route on the same pair. A repeated query is served
// from the whole-outcome cache: the cached Outcome is copied out through a
// pooled arena, so the warm path performs zero per-call heap allocations
// while the caller still receives private Path/Waypoints slices.
func (e *Engine) Route(s, t sim.NodeID) Outcome {
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	k := planKey{kind: kindOutcome, abs: e.absID(), a: s, b: t, gen: e.linkGen(), topo: e.topoGen()}
	if v, hit := e.lookup(k); hit {
		sc := e.scratch.Get().(*routeScratch)
		out := *v.out
		out.Path = sc.ids.Copy(v.out.Path)
		out.Waypoints = sc.ids.Copy(v.out.Waypoints)
		e.scratch.Put(sc)
		return out
	}
	out := e.nw.route(e, s, t, false)
	stored := out
	stored.Path = copyIDs(out.Path)
	stored.Waypoints = copyIDs(out.Waypoints)
	e.store(k, planValue{out: &stored})
	return out
}

// RouteBatch answers all queries on the worker pool, preserving input order
// in the result slice. Outcomes are identical to routing each query
// sequentially via Network.Route.
func (e *Engine) RouteBatch(queries []Query) []Outcome {
	out := make([]Outcome, len(queries))
	workers := e.workers
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		for i, q := range queries {
			out[i] = e.Route(q.S, q.T)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				out[i] = e.Route(queries[i].S, queries[i].T)
				if e.tracer != nil {
					// Outstanding work after this completion: queries no
					// worker has claimed yet plus claims still in flight.
					// The old claim-time `len(queries) - i` always peaked at
					// the full batch size (the first claim sees everything),
					// so the max gauge said nothing about actual depth.
					// Reading inflight before the claim counter keeps the
					// sum a true point-in-time bound: this worker's query is
					// already done, so the value is at most len(queries)-1.
					inf := int(e.inflight.Load())
					claimed := int(next.Load())
					if claimed > len(queries) {
						claimed = len(queries)
					}
					e.tracer.Emit(trace.Event{Kind: trace.KindQueueDepth, Value: len(queries) - claimed + inf})
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// Stats sums cache counters across shards.
func (e *Engine) Stats() CacheStats {
	var st CacheStats
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += s.order.Len()
		s.mu.Unlock()
	}
	return st
}

// --- planSource implementation: cache-through to the Network ---

var _ planSource = (*Engine)(nil)

const (
	kindGroupPath = iota
	kindExitPlan
	kindOverlay
	kindOutcome // whole routing outcome for a (s, t) pair
)

// planKey identifies one cacheable sub-result. Exit plans additionally
// depend on the continuous "toward" point, carried as raw coordinates.
// gen is the LinkStats generation the fragment was computed under: when
// link-quality estimates shift, the generation advances and stale cached
// fragments simply stop being addressable (they age out of the LRU). On a
// lossless run the generation stays 0 forever, so caching is unchanged.
// topo is the Network's topology-repair generation: a membership change
// (crash or recovery) advances it, so every fragment planned over the old
// topology dies with the change instead of misrouting traffic into a dead
// node — same invalidation-by-unaddressability scheme, same zero cost while
// the membership is static. abs is the hole abstraction backend ID: plan
// fragments computed under one abstraction are never served to another
// (a repair can swap the Abstraction instance, and engines may share a
// Network whose backend differs from what a stale key assumed).
type planKey struct {
	kind int8
	abs  uint8
	gi   int32
	a, b sim.NodeID
	x, y float64
	gen  uint64
	topo uint64
}

// linkGen is the current link-quality generation to stamp into plan keys.
func (e *Engine) linkGen() uint64 {
	if e.nw.Link == nil {
		return 0
	}
	return e.nw.Link.Generation()
}

// topoGen is the current topology-repair generation to stamp into plan keys.
func (e *Engine) topoGen() uint64 { return e.nw.TopoGeneration() }

// absID is the hole abstraction backend identifier to stamp into plan keys.
func (e *Engine) absID() uint8 { return e.nw.Abs.ID() }

// planValue is a cached plan fragment. Failures (ok=false) are cached too:
// a pair that falls back once will fall back every time. Whole-outcome
// entries (kindOutcome) carry the Outcome instead; its Path/Waypoints are
// private deep copies, never handed out directly.
type planValue struct {
	wps  []sim.NodeID
	exit sim.NodeID
	ok   bool
	out  *Outcome
}

func (e *Engine) groupPathNodes(gi int, s, t sim.NodeID) ([]sim.NodeID, bool) {
	k := planKey{kind: kindGroupPath, abs: e.absID(), gi: int32(gi), a: s, b: t, gen: e.linkGen(), topo: e.topoGen()}
	if v, hit := e.lookup(k); hit {
		return copyIDs(v.wps), v.ok
	}
	wps, ok := e.nw.groupPathNodes(gi, s, t)
	e.store(k, planValue{wps: copyIDs(wps), ok: ok})
	return wps, ok
}

func (e *Engine) exitPlan(gi int, v sim.NodeID, toward geom.Point) ([]sim.NodeID, sim.NodeID, bool) {
	k := planKey{kind: kindExitPlan, abs: e.absID(), gi: int32(gi), a: v, x: toward.X, y: toward.Y, gen: e.linkGen(), topo: e.topoGen()}
	if c, hit := e.lookup(k); hit {
		return copyIDs(c.wps), c.exit, c.ok
	}
	wps, exit, ok := e.nw.exitPlan(gi, v, toward)
	e.store(k, planValue{wps: copyIDs(wps), exit: exit, ok: ok})
	return wps, exit, ok
}

func (e *Engine) overlayWaypoints(a, b sim.NodeID) ([]sim.NodeID, bool) {
	k := planKey{kind: kindOverlay, abs: e.absID(), a: a, b: b, gen: e.linkGen(), topo: e.topoGen()}
	if v, hit := e.lookup(k); hit {
		return copyIDs(v.wps), v.ok
	}
	wps, ok := e.nw.overlayWaypoints(a, b)
	e.store(k, planValue{wps: copyIDs(wps), ok: ok})
	return wps, ok
}

func (e *Engine) lookup(k planKey) (planValue, bool) {
	if len(e.shards) == 0 {
		return planValue{}, false
	}
	v, hit := e.shards[shardOf(k, len(e.shards))].get(k)
	if e.tracer != nil {
		kind := trace.KindCacheMiss
		if hit {
			kind = trace.KindCacheHit
		}
		e.tracer.Emit(trace.Event{Kind: kind, From: int(k.a), To: int(k.b)})
	}
	return v, hit
}

func (e *Engine) store(k planKey, v planValue) {
	if len(e.shards) == 0 {
		return
	}
	evicted := e.shards[shardOf(k, len(e.shards))].put(k, v)
	if e.tracer != nil && evicted > 0 {
		e.tracer.Emit(trace.Event{Kind: trace.KindCacheEvict, Value: evicted})
	}
}

// copyIDs returns a defensive copy: cached slices must never share backing
// arrays with values handed to route(), which appends to plan fragments.
func copyIDs(ids []sim.NodeID) []sim.NodeID {
	if ids == nil {
		return nil
	}
	return append(make([]sim.NodeID, 0, len(ids)), ids...)
}

// shardOf mixes the key fields FNV-1a style into a shard index. Written
// closure-free so the warm routing path stays allocation-free.
func shardOf(k planKey, shards int) int {
	h := uint64(14695981039346656037)
	h = fnvMix(h, uint64(k.kind))
	h = fnvMix(h, uint64(k.abs))
	h = fnvMix(h, uint64(uint32(k.gi)))
	h = fnvMix(h, uint64(k.a))
	h = fnvMix(h, uint64(k.b))
	h = fnvMix(h, math.Float64bits(k.x))
	h = fnvMix(h, math.Float64bits(k.y))
	h = fnvMix(h, k.gen)
	h = fnvMix(h, k.topo)
	return int(h % uint64(shards))
}

func fnvMix(h, x uint64) uint64 { return (h ^ x) * 1099511628211 }

// cacheShard is one lock-striped LRU segment: map for lookup, list for
// recency order (front = most recent).
type cacheShard struct {
	mu                      sync.Mutex
	cap                     int
	entries                 map[planKey]*list.Element
	order                   *list.List
	hits, misses, evictions uint64
}

type cacheItem struct {
	key planKey
	val planValue
}

func (s *cacheShard) get(k planKey) (planValue, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		s.misses++
		return planValue{}, false
	}
	s.hits++
	s.order.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// put stores a value and returns how many entries the LRU evicted to make
// room (so the caller can trace evictions without re-locking).
func (s *cacheShard) put(k planKey, v planValue) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		el.Value.(*cacheItem).val = v
		s.order.MoveToFront(el)
		return 0
	}
	evicted := 0
	for s.order.Len() >= s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheItem).key)
		s.evictions++
		evicted++
	}
	s.entries[k] = s.order.PushFront(&cacheItem{key: k, val: v})
	return evicted
}
