// Package cluster is the multi-instance serving tier: a front-end gateway
// that spatially shards /route queries across N serve.Server backends and
// keeps answering through backend failure.
//
// The paper's hybrid model splits a query's cost into a local (ad-hoc) part
// and a global (long-range) part; the serve tier mirrors that split at the
// deployment level. Queries are owned by spatial regions — a grid partition
// of the deployment area, the same locally-owned-region shape the
// routing-scheme follow-ups partition hybrid networks into — and each region
// is served by R replica backends, so one instance crash loses capacity, not
// answers. The gateway owns five concerns:
//
//   - Sharding: a query's region is the grid cell of its source node; the
//     region's replica set is R consecutive backends (region + r mod N), so
//     every backend owns an equal share of regions as primary and as
//     standby, and repeated queries for a region hit the same answer caches.
//   - Health-checked failover: a poller maintains each backend's live bit
//     from /readyz (not /healthz — a backend that is alive but still warming
//     or draining must not receive traffic), and requests only consider live
//     replicas.
//   - Circuit breaking: per-backend closed/open/half-open breakers trip on
//     consecutive errors or latency and re-admit through a single half-open
//     probe, so a dead or gray backend stops costing a timeout per query.
//   - Bounded retries and hedging: a failed attempt fails over to the next
//     replica after a jittered exponential backoff; optionally a hedge
//     duplicate is issued to the standby when the primary dawdles past the
//     hedge delay, and the first answer wins (the loser is cancelled — the
//     client sees exactly one response either way).
//   - Graceful degradation: when every replica for a region is down the
//     gateway answers from its stale cache of recent routes, or falls back
//     to the long-range-only route (source → target over the global channel,
//     the one edge the hybrid model always has) — tagged degraded in the
//     response and metrics rather than erroring.
//
// Backend backpressure is propagated, not amplified: a 429 marks the replica
// saturated for this request (never retried into), and if no replica answers
// the client gets 429 with the largest backend Retry-After hint.
package cluster

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hybridroute/internal/core"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
)

// BackendInfo addresses one backend.
type BackendInfo struct {
	ID  string
	URL string
}

// FromInstances adapts spawned in-process instances into backend addresses.
func FromInstances(instances []*Instance) []BackendInfo {
	out := make([]BackendInfo, len(instances))
	for i, in := range instances {
		out[i] = BackendInfo{ID: in.ID, URL: in.URL()}
	}
	return out
}

// Config tunes the gateway. The zero value is usable: R=2, a 4x4 region
// grid, 3 failover retries with 5ms..100ms jittered backoff, 2s per-attempt
// timeout, hedging off, 250ms health polling and a 4096-entry stale cache.
type Config struct {
	// Replicas is the replica factor R: how many backends own each region;
	// <= 0 means 2. Clamped to the backend count.
	Replicas int
	// GridDim is the region grid dimension (GridDim² regions); <= 0 means 4.
	GridDim int
	// Retries bounds failover: a query is attempted at most Retries+1 times
	// across its replica set; < 0 means 0 retries, 0 means the default (3).
	Retries int
	// BackoffBase/BackoffMax shape the jittered exponential backoff between
	// failover attempts; <= 0 means 5ms / 100ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// AttemptTimeout bounds one backend attempt; <= 0 means 2s.
	AttemptTimeout time.Duration
	// HedgeDelay, when > 0, issues a duplicate request to the next replica
	// if the primary has not answered within this delay; the first answer
	// wins. 0 disables hedging.
	HedgeDelay time.Duration
	// HealthInterval is the /readyz polling cadence; <= 0 means 250ms.
	HealthInterval time.Duration
	// Breaker tunes the per-backend circuit breakers.
	Breaker BreakerConfig
	// StaleCacheSize bounds the degraded-answer cache of recent successful
	// routes; <= 0 means 4096, negative disables it.
	StaleCacheSize int
	// Seed makes the backoff jitter sequence deterministic.
	Seed uint64
	// Tracer, when set, receives gateway events (failovers, breaker
	// transitions, hedges, degraded answers) alongside the registry counters.
	Tracer *trace.Tracer
}

func (c Config) withDefaults(backends int) Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > backends {
		c.Replicas = backends
	}
	if c.GridDim <= 0 {
		c.GridDim = 4
	}
	if c.Retries == 0 {
		c.Retries = 3
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 100 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.StaleCacheSize == 0 {
		c.StaleCacheSize = 4096
	}
	return c
}

// backendRef is the gateway's view of one backend.
type backendRef struct {
	idx       int
	id        string
	url       string
	ready     atomic.Bool
	brk       *breaker
	successes atomic.Uint64
	failures  atomic.Uint64
}

// Gateway fronts the backend fleet. Create with NewGateway, launch the
// health poller with Start, stop with Close. Safe for concurrent use.
type Gateway struct {
	cfg      Config
	nw       *core.Network
	backends []*backendRef
	client   *http.Client
	reg      *trace.Registry
	cache    *staleCache

	// Region grid over the deployment's bounding box.
	minX, minY   float64
	cellW, cellH float64
	dim          int

	rngMu sync.Mutex
	rng   *rand.Rand

	stop    chan struct{}
	bg      sync.WaitGroup
	started atomic.Bool
	closed  atomic.Bool
}

// NewGateway builds a gateway over the preprocessed network (consulted only
// for node positions — the region map — and node-count validation) and the
// backend fleet.
func NewGateway(nw *core.Network, backends []BackendInfo, cfg Config) (*Gateway, error) {
	if nw == nil {
		return nil, errors.New("cluster: nil network")
	}
	if len(backends) == 0 {
		return nil, errors.New("cluster: no backends")
	}
	cfg = cfg.withDefaults(len(backends))
	g := &Gateway{
		cfg:    cfg,
		nw:     nw,
		client: &http.Client{},
		reg:    trace.NewRegistry(),
		rng:    rand.New(rand.NewSource(int64(cfg.Seed))),
		stop:   make(chan struct{}),
		dim:    cfg.GridDim,
	}
	for i, b := range backends {
		if b.URL == "" {
			return nil, fmt.Errorf("cluster: backend %d has no URL", i)
		}
		id := b.ID
		if id == "" {
			id = fmt.Sprintf("i%d", i)
		}
		g.backends = append(g.backends, &backendRef{idx: i, id: id, url: b.URL, brk: newBreaker(cfg.Breaker)})
	}
	if cfg.StaleCacheSize > 0 {
		g.cache = newStaleCache(cfg.StaleCacheSize)
	}
	// Region grid: the bounding box of every node position, split dim×dim.
	minX, minY := g.nw.G.Point(0).X, g.nw.G.Point(0).Y
	maxX, maxY := minX, minY
	for v := 1; v < g.nw.G.N(); v++ {
		p := g.nw.G.Point(sim.NodeID(v))
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	g.minX, g.minY = minX, minY
	g.cellW = (maxX - minX) / float64(g.dim)
	g.cellH = (maxY - minY) / float64(g.dim)
	g.reg.SetGauge("hybridroute_cluster_backends", float64(len(g.backends)))
	return g, nil
}

// Registry returns the gateway's live metrics registry.
func (g *Gateway) Registry() *trace.Registry { return g.reg }

// Start runs one synchronous health pass (so the first request already has a
// live-replica set) and launches the background poller.
func (g *Gateway) Start() {
	if g.started.Swap(true) {
		return
	}
	g.CheckHealth()
	g.bg.Add(1)
	go g.healthLoop()
}

// Close stops the background poller.
func (g *Gateway) Close() {
	if g.closed.Swap(true) {
		return
	}
	if g.started.Load() {
		close(g.stop)
		g.bg.Wait()
	}
}

// regionOf maps a source node to its grid region.
func (g *Gateway) regionOf(s sim.NodeID) int {
	p := g.nw.G.Point(s)
	col, row := 0, 0
	if g.cellW > 0 {
		col = int((p.X - g.minX) / g.cellW)
	}
	if g.cellH > 0 {
		row = int((p.Y - g.minY) / g.cellH)
	}
	if col >= g.dim {
		col = g.dim - 1
	}
	if row >= g.dim {
		row = g.dim - 1
	}
	return row*g.dim + col
}

// ownersOf returns the region's replica set: R consecutive backends starting
// at region mod N, primary first.
func (g *Gateway) ownersOf(region int) []int {
	n := len(g.backends)
	owners := make([]int, 0, g.cfg.Replicas)
	for r := 0; r < g.cfg.Replicas; r++ {
		owners = append(owners, (region+r)%n)
	}
	return owners
}

// emit folds one gateway event into the registry counters and the optional
// tracer stream.
func (g *Gateway) emit(e trace.Event) {
	g.reg.MergeEvents([]trace.Event{e})
	g.cfg.Tracer.Emit(e)
}

// backoff returns the jittered exponential delay before retry attempt n
// (n >= 1): base·2^(n-1) capped at max, scaled by a seeded jitter in
// [0.5, 1.5) so synchronized clients do not retry in lockstep.
func (g *Gateway) backoff(n int) time.Duration {
	d := g.cfg.BackoffBase << (n - 1)
	if d > g.cfg.BackoffMax || d <= 0 {
		d = g.cfg.BackoffMax
	}
	g.rngMu.Lock()
	j := 0.5 + g.rng.Float64()
	g.rngMu.Unlock()
	return time.Duration(float64(d) * j)
}

// attemptResult is one backend attempt's outcome.
type attemptResult struct {
	status     int
	body       []byte
	retryAfter int
	latency    time.Duration
	err        error // transport-level failure (connection refused/reset, timeout)
}

// final reports whether the attempt produced an answer the client should
// receive as-is: a served route (200), a served-but-expired deadline (504)
// or a client error (400) — failing over cannot improve any of them.
func (r *attemptResult) final() bool {
	return r.err == nil && (r.status == http.StatusOK ||
		r.status == http.StatusGatewayTimeout || r.status == http.StatusBadRequest)
}

// attempt sends the query to one backend and classifies the outcome, feeding
// the backend's breaker. recordFailure gates breaker/counter updates on the
// losing side of a hedge: a cancelled loser must not trip its breaker.
func (g *Gateway) attempt(ctx context.Context, b *backendRef, body []byte, recordFailure func() bool) attemptResult {
	start := time.Now()
	rctx, cancel := context.WithTimeout(ctx, g.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, b.url+"/route", bytes.NewReader(body))
	if err != nil {
		return attemptResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	lat := time.Since(start)
	if err != nil {
		if recordFailure == nil || recordFailure() {
			b.failures.Add(1)
			g.reg.Add("hybridroute_cluster_backend_errors_total", 1)
			g.breakerEvent(b, b.brk.Failure())
		}
		return attemptResult{latency: lat, err: err}
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		if recordFailure == nil || recordFailure() {
			b.failures.Add(1)
			g.reg.Add("hybridroute_cluster_backend_errors_total", 1)
			g.breakerEvent(b, b.brk.Failure())
		}
		return attemptResult{latency: lat, err: err}
	}
	res := attemptResult{status: resp.StatusCode, body: buf, latency: lat}
	switch {
	case res.final():
		b.successes.Add(1)
		g.breakerEvent(b, b.brk.Success(lat))
	case resp.StatusCode == http.StatusTooManyRequests:
		// Saturation is load, not failure: the breaker must not trip (the
		// backend is healthy, its queue is full), and the hint is kept so
		// the largest one can be surfaced to the client.
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			res.retryAfter = ra
		}
	default: // 5xx: draining, not started, transport errors
		b.failures.Add(1)
		g.reg.Add("hybridroute_cluster_backend_errors_total", 1)
		g.breakerEvent(b, b.brk.Failure())
		res.err = fmt.Errorf("backend %s: HTTP %d", b.id, resp.StatusCode)
	}
	return res
}

// breakerEvent translates a breaker transition into a counted event.
func (g *Gateway) breakerEvent(b *backendRef, tr transition) {
	switch tr {
	case transOpen:
		g.emit(trace.Event{Kind: trace.KindBreakerOpen, From: b.idx, Plan: b.id})
	case transHalfOpen:
		g.emit(trace.Event{Kind: trace.KindBreakerHalfOpen, From: b.idx, Plan: b.id})
	case transClose:
		g.emit(trace.Event{Kind: trace.KindBreakerClose, From: b.idx, Plan: b.id})
	}
}

// gwAnswer is what the HTTP layer writes out: a status, a body, and the
// gateway metadata headers.
type gwAnswer struct {
	status     int
	body       []byte
	backend    string // X-Cluster-Backend
	hedged     bool   // X-Cluster-Hedged (the hedge duplicate won)
	degraded   bool
	retryAfter int // Retry-After for 429
}

// routeQuery orchestrates one query: replica selection, breaker-gated
// attempts with jittered-backoff failover, optional hedging, backpressure
// propagation, and the degraded fallbacks.
func (g *Gateway) routeQuery(ctx context.Context, s, t sim.NodeID, body []byte) gwAnswer {
	g.reg.Add("hybridroute_cluster_requests_total", 1)
	owners := g.ownersOf(g.regionOf(s))
	saturated := make(map[int]bool)
	maxRetryAfter := 0
	sawBackpressure := false

	for attempt := 0; attempt <= g.cfg.Retries; attempt++ {
		primary, backup := g.pickCandidates(owners, attempt, saturated)
		if primary == nil {
			break
		}
		if attempt > 0 {
			select {
			case <-time.After(g.backoff(attempt)):
			case <-ctx.Done():
				return gwAnswer{status: http.StatusServiceUnavailable, body: []byte("gateway: client gone\n")}
			}
		}
		res, hedgeWon, from := g.attemptHedged(ctx, primary, backup, body)
		switch {
		case res.final():
			if res.status == http.StatusOK && g.cache != nil {
				g.cache.put(s, t, res.body)
			}
			g.reg.Add("hybridroute_cluster_answered_total", 1)
			return gwAnswer{status: res.status, body: res.body, backend: from.id, hedged: hedgeWon}
		case res.status == http.StatusTooManyRequests:
			// Do not retry into a saturated replica — and do not treat its
			// backpressure as a failure to route around with more load.
			sawBackpressure = true
			if res.retryAfter > maxRetryAfter {
				maxRetryAfter = res.retryAfter
			}
			saturated[from.idx] = true
		default:
			g.emit(trace.Event{Kind: trace.KindFailover, From: from.idx, Plan: from.id, Attempt: attempt + 1})
		}
	}

	if sawBackpressure {
		// Every answering replica said "later": surface the largest hint
		// instead of inventing an answer for a merely-overloaded region.
		if maxRetryAfter < 1 {
			maxRetryAfter = 1
		}
		g.reg.Add("hybridroute_cluster_shed_backpressure_total", 1)
		return gwAnswer{status: http.StatusTooManyRequests, retryAfter: maxRetryAfter,
			body: []byte("cluster: all replicas saturated\n")}
	}
	return g.degraded(s, t)
}

// pickCandidates scans the replica set for the first eligible backend (live,
// not saturated this request, breaker willing) and — when hedging is on — an
// eligible standby behind it. The scan starts at owners[attempt], so attempt
// k+1 genuinely fails over to the next replica instead of re-picking the
// backend that just failed (which still has attempts left before its breaker
// trips). The standby is peeked, not Allow-ed: a hedge may never fire, so it
// must not consume a half-open probe slot, which means only closed-breaker
// standbys qualify.
func (g *Gateway) pickCandidates(owners []int, attempt int, saturated map[int]bool) (primary, backup *backendRef) {
	for i := 0; i < len(owners); i++ {
		idx := owners[(attempt+i)%len(owners)]
		b := g.backends[idx]
		if saturated[idx] || !b.ready.Load() {
			continue
		}
		if primary == nil {
			ok, tr := b.brk.Allow()
			g.breakerEvent(b, tr)
			if !ok {
				continue
			}
			primary = b
			if g.cfg.HedgeDelay <= 0 {
				return primary, nil
			}
			continue
		}
		if b.brk.Closed() {
			return primary, b
		}
	}
	return primary, nil
}

// attemptHedged runs one attempt against primary, hedging to backup if the
// primary has not answered within HedgeDelay. The first final answer wins and
// the loser is cancelled; a cancelled loser records neither success nor
// failure (its breaker must not trip for losing a race). Returns the winning
// result, whether the hedge won, and the backend that produced the answer.
func (g *Gateway) attemptHedged(ctx context.Context, primary, backup *backendRef, body []byte) (attemptResult, bool, *backendRef) {
	if backup == nil {
		return g.attempt(ctx, primary, body, nil), false, primary
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	var won atomic.Bool
	type hedgeOutcome struct {
		res    attemptResult
		hedge  bool
		sender *backendRef
	}
	out := make(chan hedgeOutcome, 2)
	run := func(b *backendRef, isHedge bool) {
		res := g.attempt(actx, b, body, func() bool {
			// The loser of a decided race fails only because it was
			// cancelled; don't charge its breaker.
			return !won.Load()
		})
		out <- hedgeOutcome{res: res, hedge: isHedge, sender: b}
	}
	go run(primary, false)
	hedgeTimer := time.NewTimer(g.cfg.HedgeDelay)
	defer hedgeTimer.Stop()
	hedged := false
	pending := 1
	var firstFail *hedgeOutcome
	for {
		select {
		case <-hedgeTimer.C:
			if !hedged {
				hedged = true
				pending++
				g.emit(trace.Event{Kind: trace.KindHedge, From: backup.idx, Plan: backup.id})
				go run(backup, true)
			}
		case o := <-out:
			if o.res.final() || o.res.status == http.StatusTooManyRequests {
				won.Store(true)
				if o.hedge && o.res.final() {
					g.emit(trace.Event{Kind: trace.KindHedgeWin, From: o.sender.idx, Plan: o.sender.id})
				}
				return o.res, o.hedge && o.res.final(), o.sender
			}
			pending--
			if firstFail == nil {
				firstFail = &o
			}
			if !hedged {
				// Primary failed before the hedge fired: fail fast to the
				// outer failover loop instead of waiting out the delay.
				return o.res, false, o.sender
			}
			if pending == 0 {
				return firstFail.res, false, firstFail.sender
			}
		case <-ctx.Done():
			return attemptResult{err: ctx.Err()}, false, primary
		}
	}
}

// degraded answers a query whose whole replica set is down: first from the
// stale cache of recent successful routes, else the long-range-only fallback
// (the hybrid model's global edge always connects source and target, so a
// 1-hop long-range answer is always constructible — maximally imprecise,
// never wrong about connectivity). Tagged degraded in body and metrics.
func (g *Gateway) degraded(s, t sim.NodeID) gwAnswer {
	if g.cache != nil {
		if body, ok := g.cache.get(s, t); ok {
			var ans routeAnswer
			if err := json.Unmarshal(body, &ans); err == nil {
				ans.Degraded = true
				ans.DegradedSource = "stale"
				if buf, err := json.Marshal(ans); err == nil {
					g.emit(trace.Event{Kind: trace.KindDegraded, Plan: "stale", From: int(s), To: int(t)})
					g.reg.Add("hybridroute_cluster_degraded_stale_total", 1)
					g.reg.Add("hybridroute_cluster_answered_total", 1)
					return gwAnswer{status: http.StatusOK, body: buf, degraded: true}
				}
			}
		}
	}
	ans := routeAnswer{
		Reached:        true,
		Path:           []int{int(s), int(t)},
		Hops:           1,
		Degraded:       true,
		DegradedSource: "longrange",
	}
	buf, err := json.Marshal(ans)
	if err != nil {
		return gwAnswer{status: http.StatusInternalServerError, body: []byte("cluster: degraded marshal failed\n")}
	}
	g.emit(trace.Event{Kind: trace.KindDegraded, Plan: "longrange", From: int(s), To: int(t)})
	g.reg.Add("hybridroute_cluster_degraded_longrange_total", 1)
	g.reg.Add("hybridroute_cluster_answered_total", 1)
	return gwAnswer{status: http.StatusOK, body: buf, degraded: true}
}

// routeAnswer mirrors the backend's /route response schema (field-for-field,
// so a re-encode of an undegraded answer is byte-identical) plus the
// gateway's degraded tags.
type routeAnswer struct {
	Reached      bool   `json:"reached"`
	Case         int    `json:"case"`
	Path         []int  `json:"path,omitempty"`
	Hops         int    `json:"hops"`
	PlanFallback bool   `json:"plan_fallback,omitempty"`
	DeliveredSim bool   `json:"delivered_sim,omitempty"`
	Retransmits  int    `json:"retransmits,omitempty"`
	QueuedUS     int64  `json:"queued_us"`
	LatencyUS    int64  `json:"latency_us"`
	Error        string `json:"error,omitempty"`

	Degraded       bool   `json:"degraded,omitempty"`
	DegradedSource string `json:"degraded_source,omitempty"`
}

// staleCache is a bounded LRU of the most recent successful route bodies,
// keyed by (s, t) — the gateway's last-known-good answer for a pair.
type staleCache struct {
	mu      sync.Mutex
	cap     int
	entries map[[2]sim.NodeID]*list.Element
	order   *list.List
}

type staleItem struct {
	key  [2]sim.NodeID
	body []byte
}

func newStaleCache(capacity int) *staleCache {
	return &staleCache{cap: capacity, entries: make(map[[2]sim.NodeID]*list.Element), order: list.New()}
}

func (c *staleCache) put(s, t sim.NodeID, body []byte) {
	k := [2]sim.NodeID{s, t}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*staleItem).body = body
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*staleItem).key)
	}
	c.entries[k] = c.order.PushFront(&staleItem{key: k, body: body})
}

func (c *staleCache) get(s, t sim.NodeID) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[[2]sim.NodeID{s, t}]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*staleItem).body, true
}
