// Package serve wraps a preprocessed core.Engine in a long-running query
// service: the production shape the paper's preprocessing/query split implies.
// After the one-time preprocessing phase every structure a query touches is
// stored state, so a node can answer an unbounded *stream* of routing queries
// — not just the closed batches core.Engine.RouteBatch answers.
//
// The server owns four concerns the batch engine does not have:
//
//   - Admission control: a bounded queue with explicit backpressure. A full
//     queue sheds the submit (ErrQueueFull → HTTP 429) instead of queueing
//     unbounded work, and a per-source fair-share bound keeps one chatty
//     client from occupying the whole queue (ErrSourceShare).
//   - Live churn under traffic: membership changes (crash/recover) are
//     applied while workers keep serving. A topology RWMutex serializes the
//     repair against in-flight queries, and the engine's answer cache fences
//     stale answers by keying on the topology generation — a query admitted
//     before a repair and routed after it plans on the patched topology.
//   - Deadline propagation: a request deadline sheds expired work at dequeue
//     time and, for on-simulator deliveries, becomes the reliable transport's
//     TimeoutRounds budget (remaining wall time / RoundCost).
//   - Streaming observability: a live trace.Registry served as a Prometheus
//     /metrics endpoint plus periodic OTLP-style JSON export of the drained
//     event stream, replacing the post-run dump.
//
// Shutdown drains: admission closes first, every already-accepted query is
// answered, then background loops stop and a final export batch is flushed.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridroute/internal/core"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
)

// Request is one streaming routing query.
type Request struct {
	S, T sim.NodeID
	// Source is the admission-fairness key (one per client); "" shares the
	// anonymous bucket.
	Source string
	// Deadline, when set, sheds the query if it expires before a worker picks
	// it up, and bounds the reliable transport's round budget for deliveries.
	Deadline time.Time
	// Deliver executes the query as an actual message sequence on the
	// simulator's reliable transport (serialized — the simulator is a shared
	// mutable resource) instead of answering from stored state alone.
	Deliver bool
}

// Response is the answer to one accepted request.
type Response struct {
	Outcome   core.Outcome
	Transport *core.TransportReport // set for Deliver requests
	Err       error
	Queued    time.Duration // admission-to-dequeue wait
	Latency   time.Duration // admission-to-answer total
}

// Admission and serving errors. The HTTP layer maps these onto status codes
// (429 for shed, 503 for draining, 504 for expired deadlines).
var (
	ErrQueueFull        = errors.New("serve: admission queue full")
	ErrSourceShare      = errors.New("serve: per-source fair share exhausted")
	ErrDraining         = errors.New("serve: server is draining")
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded before routing")
	ErrNoSimulator      = errors.New("serve: operation needs a simulator, but the network was built without one (static pipeline)")
	ErrNotStarted       = errors.New("serve: server not started")
)

// ChurnEvent schedules one live membership change relative to Start.
type ChurnEvent struct {
	After time.Duration
	Node  sim.NodeID
	Up    bool // false: crash; true: recover
}

// Config tunes the server. The zero value is usable: GOMAXPROCS workers, a
// 1024-entry queue, half-queue fair share, 250ms metrics folding and no
// export.
type Config struct {
	// InstanceID names this server in a multi-instance deployment. It rides
	// in /stats, in the export stream's resource block
	// ("service.instance.id"), and in the drain summary, so a cluster
	// gateway and the metrics rollup can attribute counters to instances.
	// Empty is fine for a single-process deployment.
	InstanceID string
	// Workers is the serving pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueSize bounds the admission queue; <= 0 means 1024.
	QueueSize int
	// MaxSourceFraction caps one source's share of the queue in (0, 1];
	// <= 0 means 0.5. The per-source bound is max(1, fraction*QueueSize).
	MaxSourceFraction float64
	// RoundCost converts a request's remaining wall-clock deadline into the
	// reliable transport's TimeoutRounds for Deliver requests; <= 0 means 1ms
	// per simulated round.
	RoundCost time.Duration
	// MetricsInterval is the cadence of the background fold (tracer drain +
	// gauge refresh); <= 0 means 250ms. /metrics scrapes also fold on demand.
	MetricsInterval time.Duration
	// Export, when non-nil, receives one OTLP-style JSON line per
	// ExportInterval carrying the metrics snapshot and the freshly drained
	// event stream.
	Export io.Writer
	// ExportInterval is the export cadence; <= 0 means 1s.
	ExportInterval time.Duration
	// Churn is an optional schedule of live membership changes applied while
	// traffic is being served (requires a simulator-built network).
	Churn []ChurnEvent
	// Tracer, when set, is drained continuously into the registry and the
	// export stream. Install the same tracer on the Network/Engine to stream
	// transport and cache events.
	Tracer *trace.Tracer
}

// item is one admitted queue entry.
type item struct {
	req      Request
	admitted time.Time
	fn       func(Response)
}

// Server is the long-running query service. Create with New, launch with
// Start, stop with Shutdown. Safe for concurrent use.
type Server struct {
	eng *core.Engine
	nw  *core.Network
	cfg Config
	reg *trace.Registry

	queue     chan item
	admMu     sync.Mutex // admission state: perSource, draining, queue sends
	perSource map[string]int
	sourceCap int
	draining  bool

	// topo serializes live churn repair (writer) against in-flight queries
	// (readers). The engine's topology-generation cache keys fence stale
	// plans; this lock fences the structure swap itself.
	topo sync.RWMutex
	// simMu serializes Deliver requests: the simulator is one shared mutable
	// machine, so transport runs are a single-lane path.
	simMu sync.Mutex

	// Hot-path accounting is atomic (no registry lock per query); fold()
	// publishes deltas into the registry.
	accepted  atomic.Uint64
	completed atomic.Uint64
	shedFull  atomic.Uint64
	shedFair  atomic.Uint64
	expired   atomic.Uint64
	churnN    atomic.Uint64
	queueMax  atomic.Int64
	latSumNs  atomic.Int64

	foldMu       sync.Mutex
	pub          []pubCounter
	exportEvents []trace.Event
	lastExport   time.Time

	// Observed drain rate in completed queries/sec, EWMA-folded by fold().
	// The Retry-After hint on shed admissions is derived from it, so the
	// hint tracks how fast this server actually clears backlog instead of
	// being a hardcoded constant. drainAt/drainDone are the previous fold's
	// sample (foldMu); drainRate is atomic so the HTTP shed path reads it
	// without the fold lock.
	drainRate atomic.Uint64 // math.Float64bits
	drainAt   time.Time
	drainDone uint64

	workerGate func() // test hook: invoked by a worker after dequeue

	wg      sync.WaitGroup // serving workers
	bg      sync.WaitGroup // background loops
	stop    chan struct{}
	started atomic.Bool
	// ready flips on once Start has brought the worker pool and background
	// loops up, and off again when a drain begins. /readyz (the routability
	// signal a cluster gateway keys failover off) reports it; /healthz stays
	// pure liveness and keeps answering ok through a drain.
	ready  atomic.Bool
	closed atomic.Bool
}

// pubCounter publishes a monotone atomic into a named registry counter by
// delta, so the hot path never takes the registry lock.
type pubCounter struct {
	name string
	src  *atomic.Uint64
	last uint64
}

// New builds a server over a preprocessed engine. The engine's Network is the
// serving substrate; a Churn schedule or Deliver traffic additionally needs
// the network to have been built with the simulator pipeline.
func New(eng *core.Engine, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, errors.New("serve: nil engine")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.MaxSourceFraction <= 0 {
		cfg.MaxSourceFraction = 0.5
	}
	if cfg.MaxSourceFraction > 1 {
		return nil, fmt.Errorf("serve: MaxSourceFraction %v > 1", cfg.MaxSourceFraction)
	}
	if cfg.RoundCost <= 0 {
		cfg.RoundCost = time.Millisecond
	}
	if cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = 250 * time.Millisecond
	}
	if cfg.ExportInterval <= 0 {
		cfg.ExportInterval = time.Second
	}
	nw := eng.Network()
	if len(cfg.Churn) > 0 && nw.Sim == nil {
		return nil, ErrNoSimulator
	}
	for _, ev := range cfg.Churn {
		if ev.Node < 0 || int(ev.Node) >= nw.G.N() {
			return nil, fmt.Errorf("serve: churn node %d out of range [0, %d)", ev.Node, nw.G.N())
		}
	}
	s := &Server{
		eng:       eng,
		nw:        nw,
		cfg:       cfg,
		reg:       trace.NewRegistry(),
		queue:     make(chan item, cfg.QueueSize),
		perSource: make(map[string]int),
		sourceCap: maxInt(1, int(cfg.MaxSourceFraction*float64(cfg.QueueSize))),
		stop:      make(chan struct{}),
	}
	s.pub = []pubCounter{
		{name: "hybridroute_serve_accepted_total", src: &s.accepted},
		{name: "hybridroute_serve_completed_total", src: &s.completed},
		{name: "hybridroute_serve_shed_full_total", src: &s.shedFull},
		{name: "hybridroute_serve_shed_fairness_total", src: &s.shedFair},
		{name: "hybridroute_serve_expired_total", src: &s.expired},
		{name: "hybridroute_serve_churn_events_total", src: &s.churnN},
	}
	return s, nil
}

// Registry returns the live metrics registry the server folds into.
func (s *Server) Registry() *trace.Registry { return s.reg }

// Start launches the serving workers and background loops. It returns
// immediately; queries stream in through Submit/Do or the HTTP Handler.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.bg.Add(1)
	go s.foldLoop()
	if len(s.cfg.Churn) > 0 {
		s.bg.Add(1)
		go s.churnLoop()
	}
	// Ready only now: between New and here the engine's preprocessed state
	// exists but nothing would answer a queued request, so a gateway that
	// routed on /healthz alone would park traffic on a dead queue.
	s.ready.Store(true)
}

// Ready reports whether the server is accepting and able to answer queries:
// true from the end of Start until a drain begins.
func (s *Server) Ready() bool {
	if !s.ready.Load() {
		return false
	}
	s.admMu.Lock()
	draining := s.draining
	s.admMu.Unlock()
	return !draining
}

// Submit admits one request without blocking: fn is invoked exactly once from
// a serving worker with the answer. A non-nil error means the request was
// shed at admission (queue full, fair-share exhausted, draining, or already
// expired) and fn will never be called.
func (s *Server) Submit(req Request, fn func(Response)) error {
	if !s.started.Load() {
		return ErrNotStarted
	}
	if fn == nil {
		fn = func(Response) {}
	}
	now := time.Now()
	if !req.Deadline.IsZero() && !now.Before(req.Deadline) {
		s.expired.Add(1)
		return ErrDeadlineExceeded
	}
	s.admMu.Lock()
	if s.draining {
		s.admMu.Unlock()
		return ErrDraining
	}
	if s.perSource[req.Source] >= s.sourceCap {
		s.admMu.Unlock()
		s.shedFair.Add(1)
		return ErrSourceShare
	}
	select {
	case s.queue <- item{req: req, admitted: now, fn: fn}:
		s.perSource[req.Source]++
		depth := int64(len(s.queue))
		s.admMu.Unlock()
		s.accepted.Add(1)
		for {
			cur := s.queueMax.Load()
			if depth <= cur || s.queueMax.CompareAndSwap(cur, depth) {
				break
			}
		}
		return nil
	default:
		s.admMu.Unlock()
		s.shedFull.Add(1)
		return ErrQueueFull
	}
}

// Do admits one request and blocks for its answer. The error is non-nil only
// for admission sheds; serving failures ride in Response.Err.
func (s *Server) Do(req Request) (Response, error) {
	ch := make(chan Response, 1)
	if err := s.Submit(req, func(r Response) { ch <- r }); err != nil {
		return Response{}, err
	}
	return <-ch, nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for it := range s.queue {
		if s.workerGate != nil {
			s.workerGate()
		}
		s.admMu.Lock()
		if s.perSource[it.req.Source] <= 1 {
			delete(s.perSource, it.req.Source)
		} else {
			s.perSource[it.req.Source]--
		}
		s.admMu.Unlock()
		s.serveOne(it)
	}
}

// serveOne answers one dequeued request. Every accepted request is answered
// exactly once — expired deadlines and transport failures are answers too
// (carried in Response.Err), which is what makes the drain guarantee checkable.
func (s *Server) serveOne(it item) {
	start := time.Now()
	resp := Response{Queued: start.Sub(it.admitted)}
	switch {
	case !it.req.Deadline.IsZero() && !start.Before(it.req.Deadline):
		// Load shedding at dequeue: the deadline expired while queued, so
		// routing it would waste worker time on an answer nobody wants.
		s.expired.Add(1)
		resp.Err = ErrDeadlineExceeded
	case it.req.Deliver:
		resp.Transport, resp.Err = s.deliver(it.req)
		if resp.Transport != nil {
			resp.Outcome = resp.Transport.Outcome
		}
	default:
		s.topo.RLock()
		resp.Outcome = s.eng.Route(it.req.S, it.req.T)
		s.topo.RUnlock()
	}
	resp.Latency = time.Since(it.admitted)
	s.latSumNs.Add(int64(resp.Latency))
	s.completed.Add(1)
	it.fn(resp)
}

// deliver executes the query on the simulator's reliable transport with the
// request's remaining deadline propagated as the round budget.
func (s *Server) deliver(req Request) (*core.TransportReport, error) {
	if s.nw.Sim == nil {
		return nil, ErrNoSimulator
	}
	opt := core.TransportOptions{PayloadWords: 32, Reliable: true}
	if !req.Deadline.IsZero() {
		rounds := int(time.Until(req.Deadline) / s.cfg.RoundCost)
		if rounds < 1 {
			rounds = 1
		}
		opt.TimeoutRounds = rounds
	}
	s.topo.RLock()
	defer s.topo.RUnlock()
	s.simMu.Lock()
	defer s.simMu.Unlock()
	return s.nw.RouteOnSimOpt(req.S, req.T, opt)
}

// Churn applies one live membership change while traffic continues: it takes
// the topology write lock (excluding every in-flight query for the duration
// of the repair), fires the simulator's membership listener — the topology
// repair path — and lets the engine's topology-generation cache keys fence
// every plan computed before the change.
func (s *Server) Churn(node sim.NodeID, up bool) error {
	if s.nw.Sim == nil {
		return ErrNoSimulator
	}
	s.topo.Lock()
	defer s.topo.Unlock()
	var err error
	if up {
		err = s.nw.Sim.Recover(node)
	} else {
		err = s.nw.Sim.Crash(node)
	}
	if err == nil {
		s.churnN.Add(1)
	}
	return err
}

// churnLoop replays the configured schedule against the wall clock.
func (s *Server) churnLoop() {
	defer s.bg.Done()
	evs := append([]ChurnEvent(nil), s.cfg.Churn...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].After < evs[j].After })
	start := time.Now()
	for _, ev := range evs {
		wait := time.Until(start.Add(ev.After))
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
			}
		}
		_ = s.Churn(ev.Node, ev.Up) // no-op changes are fine (already applied)
	}
}

// foldLoop periodically folds hot-path counters and the tracer stream into
// the registry and emits export batches.
func (s *Server) foldLoop() {
	defer s.bg.Done()
	tick := time.NewTicker(s.cfg.MetricsInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.fold()
			s.maybeExport(false)
		}
	}
}

// fold publishes the atomic counters into the registry, drains the tracer
// into it (buffering the events for the next export batch), and refreshes the
// gauges. Called from the background loop, from /metrics scrapes, and from
// the final drain.
func (s *Server) fold() {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	for i := range s.pub {
		p := &s.pub[i]
		if cur := p.src.Load(); cur > p.last {
			s.reg.Add(p.name, cur-p.last)
			p.last = cur
		}
	}
	if tr := s.cfg.Tracer; tr != nil {
		if evs := tr.Drain(); len(evs) > 0 {
			s.reg.MergeEvents(evs)
			s.exportEvents = append(s.exportEvents, evs...)
		}
	}
	s.reg.SetGauge("hybridroute_serve_queue_depth", float64(len(s.queue)))
	s.reg.MaxGauge("hybridroute_serve_queue_depth_max", float64(s.queueMax.Load()))
	s.reg.SetGauge("hybridroute_serve_inflight", float64(s.eng.InFlight()))
	s.reg.SetGauge("hybridroute_serve_topology_generation", float64(s.nw.TopoGeneration()))
	drainG := 0.0
	s.admMu.Lock()
	if s.draining {
		drainG = 1
	}
	s.admMu.Unlock()
	s.reg.SetGauge("hybridroute_serve_draining", drainG)
	if done := s.completed.Load(); done > 0 {
		s.reg.SetGauge("hybridroute_serve_latency_avg_us",
			float64(s.latSumNs.Load())/float64(done)/1e3)
	}
	now := time.Now()
	done := s.completed.Load()
	if !s.drainAt.IsZero() {
		if dt := now.Sub(s.drainAt).Seconds(); dt > 0 {
			inst := float64(done-s.drainDone) / dt
			rate := inst
			if old := math.Float64frombits(s.drainRate.Load()); old > 0 {
				rate = 0.5*old + 0.5*inst
			}
			s.drainRate.Store(math.Float64bits(rate))
			s.reg.SetGauge("hybridroute_serve_drain_rate_qps", rate)
		}
	}
	s.drainAt, s.drainDone = now, done
	st := s.eng.Stats()
	s.reg.SetGauge("hybridroute_serve_cache_hit_rate", st.HitRate())
}

// Stats is a point-in-time summary of the server's own accounting.
type Stats struct {
	Instance             string `json:",omitempty"`
	Accepted, Completed  uint64
	ShedFull, ShedFair   uint64
	Expired, ChurnEvents uint64
	QueueDepth, QueueMax int
	InFlight             int
	TopoGeneration       uint64
}

// ServerStats snapshots the admission and serving counters.
func (s *Server) ServerStats() Stats {
	return Stats{
		Instance:       s.cfg.InstanceID,
		Accepted:       s.accepted.Load(),
		Completed:      s.completed.Load(),
		ShedFull:       s.shedFull.Load(),
		ShedFair:       s.shedFair.Load(),
		Expired:        s.expired.Load(),
		ChurnEvents:    s.churnN.Load(),
		QueueDepth:     len(s.queue),
		QueueMax:       int(s.queueMax.Load()),
		InFlight:       s.eng.InFlight(),
		TopoGeneration: s.nw.TopoGeneration(),
	}
}

// Shutdown drains gracefully: admission closes (new submits get ErrDraining),
// every already-accepted query is answered, background loops stop, and a
// final metrics fold plus export batch flush. If ctx expires first the
// workers keep draining in the background and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.started.Load() {
		return ErrNotStarted
	}
	if s.closed.Swap(true) {
		return nil
	}
	s.ready.Store(false)
	s.admMu.Lock()
	s.draining = true
	s.admMu.Unlock()
	// No submitter can be inside the queue send now (sends hold admMu and
	// check draining first), so closing is race-free; workers drain the
	// remainder and exit.
	close(s.queue)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	close(s.stop)
	s.bg.Wait()
	s.fold()
	s.maybeExport(true)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
