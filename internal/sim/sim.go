// Package sim implements the paper's communication model: a synchronous
// message-passing network over a hybrid graph H = (V, E, E_AH). Time is
// divided into rounds; every message initiated in round i is delivered at the
// beginning of round i+1 (Section 1.1). Ad hoc sends are restricted to unit
// disk neighbours; long-range sends are restricted to *known* IDs, where
// knowledge spreads only by ID-introduction: a node learns an ID exactly when
// some message carrying that ID is delivered to it. The simulator meters
// rounds, message counts and message words per node, split by link type, so
// the experiments can verify the paper's round-complexity and
// communication-work claims (Theorem 1.2).
package sim

import (
	"fmt"
	"runtime"
	"sync"

	"hybridroute/internal/geom"
	"hybridroute/internal/trace"
	"hybridroute/internal/udg"
)

// NodeID aliases the UDG node identifier.
type NodeID = udg.NodeID

// Message is anything sent between nodes. Implement Sized to declare a size
// in words (default 1) and Carrier to declare carried node IDs for
// ID-introduction (default none).
type Message interface{}

// Sized lets a message declare its size in words for communication-work
// accounting; messages without it count as one word.
type Sized interface {
	Words() int
}

// Carrier lets a message declare the node IDs it carries. On delivery the
// receiver learns all carried IDs plus the sender's ID (ID-introduction,
// Section 1.1).
type Carrier interface {
	CarriedIDs() []NodeID
}

// Envelope is a delivered message together with its sender.
type Envelope struct {
	From NodeID
	Msg  Message
}

// Proto is a per-node protocol. Step is invoked once per round with the
// messages delivered at the beginning of that round; it may send messages
// through the context. The simulation halts when a round moves no messages.
type Proto interface {
	Step(ctx *Context, round int, inbox []Envelope)
}

// ProtoFunc adapts a function to the Proto interface.
type ProtoFunc func(ctx *Context, round int, inbox []Envelope)

// Step calls f.
func (f ProtoFunc) Step(ctx *Context, round int, inbox []Envelope) { f(ctx, round, inbox) }

// Counters aggregates per-node communication work.
type Counters struct {
	AdHocMsgs  int
	AdHocWords int
	LongMsgs   int
	LongWords  int
	// StorageWords is protocol-reported persistent storage in words.
	StorageWords int
}

// Total returns total messages sent.
func (c Counters) Total() int { return c.AdHocMsgs + c.LongMsgs }

// TotalWords returns total words sent.
func (c Counters) TotalWords() int { return c.AdHocWords + c.LongWords }

// Config controls simulator checking behaviour.
type Config struct {
	// Strict makes illegal sends (ad hoc to a non-neighbour, long-range to an
	// unknown ID) return an error that aborts the run. When false such sends
	// are still counted but allowed, which is convenient for unit tests of
	// isolated protocol fragments.
	Strict bool
	// Parallel steps the nodes of each round on a worker pool. Protocols
	// must not share mutable state across nodes (every shipped protocol
	// keeps per-node state only). Delivery order is kept deterministic by
	// merging per-worker outboxes in node-ID order, so results are
	// bit-identical to the sequential mode.
	Parallel bool
	// Faults optionally installs the fault-injection model at construction;
	// see SetFaults. Nil (or an all-zero config) means lossless delivery,
	// byte-identical to a simulator without fault support.
	Faults *FaultConfig
}

// Sim is a synchronous message-passing simulation over a unit disk graph.
type Sim struct {
	g         *udg.Graph
	cfg       Config
	maxRounds int // Run's round budget; see SetMaxRounds
	protos    []Proto

	// knowledge[v] is the set of IDs v knows: the E edge set of the hybrid
	// graph H. Initialized to the UDG neighbourhood (the setup-phase WiFi
	// broadcast of Section 5.1).
	knowledge []map[NodeID]bool

	counters []Counters
	rounds   int
	pending  [][]Envelope // messages to deliver next round, per destination
	nextSent int          // messages enqueued during the current round
	err      error
	faults   *faultState   // nil: lossless (the paper's model)
	tracer   *trace.Tracer // nil: tracing disabled (the default)

	// Dynamic membership (churn.go): the monotone topology generation,
	// membership-change listeners, and the guard that keeps Crash/Recover
	// out of an executing Run.
	topoGen   uint64
	memberFns []func(v NodeID, up bool)
	running   bool
}

// New creates a simulation over the given UDG. Protocols are attached with
// SetProto before Run.
func New(g *udg.Graph, cfg Config) *Sim {
	s := &Sim{
		g:         g,
		cfg:       cfg,
		maxRounds: defaultMaxRounds,
		protos:    make([]Proto, g.N()),
		knowledge: make([]map[NodeID]bool, g.N()),
		counters:  make([]Counters, g.N()),
		pending:   make([][]Envelope, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		s.knowledge[v] = make(map[NodeID]bool, g.Degree(NodeID(v))+2)
		for _, w := range g.Neighbors(NodeID(v)) {
			s.knowledge[v][w] = true
		}
	}
	if cfg.Faults != nil {
		if err := s.SetFaults(*cfg.Faults); err != nil {
			panic(err) // constructor misuse: invalid probabilities or IDs
		}
	}
	return s
}

// Graph returns the underlying UDG.
func (s *Sim) Graph() *udg.Graph { return s.g }

// SetProto installs the protocol for node v.
func (s *Sim) SetProto(v NodeID, p Proto) { s.protos[v] = p }

// SetAllProtos installs protocols for all nodes via the factory.
func (s *Sim) SetAllProtos(factory func(v NodeID) Proto) {
	for v := 0; v < s.g.N(); v++ {
		s.protos[v] = factory(NodeID(v))
	}
}

// Knows reports whether v knows the ID of w, i.e. (v, w) ∈ E.
func (s *Sim) Knows(v, w NodeID) bool { return s.knowledge[v][w] }

// Teach adds w to v's knowledge out-of-band. The routing layer uses it for
// the paper's standing assumption that a source knows its destination's ID
// ((s, t) ∈ E, Section 1.2).
func (s *Sim) Teach(v, w NodeID) { s.knowledge[v][w] = true }

// Rounds returns the number of completed communication rounds.
func (s *Sim) Rounds() int { return s.rounds }

// SetTracer installs (nil: removes) the event recorder. With a tracer
// installed the simulator emits one round event per executed round, one
// send/drop event per message initiated and one deliver event per message
// handed to an inbox. Tracing never alters delivery, counters or rounds; a
// traced run is byte-identical in outcomes to an untraced one.
func (s *Sim) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// Tracer returns the installed event recorder (nil when tracing is off).
func (s *Sim) Tracer() *trace.Tracer { return s.tracer }

// defaultMaxRounds is Run's round budget until SetMaxRounds changes it.
const defaultMaxRounds = 1 << 20

// SetMaxRounds rebounds Run's round budget mid-life (0 restores the default
// of 1 << 20); deadline experiments and tests use it to force MaxRounds
// exhaustion without rebuilding the simulation.
func (s *Sim) SetMaxRounds(n int) {
	if n <= 0 {
		n = defaultMaxRounds
	}
	s.maxRounds = n
}

// Counters returns the communication counters of node v.
func (s *Sim) Counters(v NodeID) Counters { return s.counters[v] }

// MaxCounters returns the per-field maxima over all nodes — the paper's
// "communication work at each node".
func (s *Sim) MaxCounters() Counters {
	var m Counters
	for _, c := range s.counters {
		if c.AdHocMsgs > m.AdHocMsgs {
			m.AdHocMsgs = c.AdHocMsgs
		}
		if c.AdHocWords > m.AdHocWords {
			m.AdHocWords = c.AdHocWords
		}
		if c.LongMsgs > m.LongMsgs {
			m.LongMsgs = c.LongMsgs
		}
		if c.LongWords > m.LongWords {
			m.LongWords = c.LongWords
		}
		if c.StorageWords > m.StorageWords {
			m.StorageWords = c.StorageWords
		}
	}
	return m
}

// TotalCounters sums counters over all nodes.
func (s *Sim) TotalCounters() Counters {
	var t Counters
	for _, c := range s.counters {
		t.AdHocMsgs += c.AdHocMsgs
		t.AdHocWords += c.AdHocWords
		t.LongMsgs += c.LongMsgs
		t.LongWords += c.LongWords
		t.StorageWords += c.StorageWords
	}
	return t
}

// ResetCounters zeroes message counters (storage is preserved) and the round
// counter; knowledge is kept. Used between protocol phases and experiment
// repetitions. Everything MaxCounters/TotalCounters aggregate is reset, and
// so are the fault-injection drop counters — a repetition must start from a
// clean slate or stale carry-over inflates its numbers. The fault model's
// drop *stream* (per-sender send sequences) is deliberately left running:
// reinstall the config via SetFaults to replay the same drops.
func (s *Sim) ResetCounters() {
	for i := range s.counters {
		st := s.counters[i].StorageWords
		s.counters[i] = Counters{StorageWords: st}
	}
	s.rounds = 0
	if s.faults != nil {
		for i := range s.faults.drops {
			s.faults.drops[i] = DropCounters{}
		}
	}
}

// Run executes rounds until quiescence (a round in which no messages were
// sent and none are in flight) or until MaxRounds, and returns the number of
// rounds executed. It returns an error if a protocol performed an illegal
// send in strict mode.
func (s *Sim) Run() (int, error) {
	s.running = true
	defer func() { s.running = false }()
	start := s.rounds
	for i := 0; i < s.maxRounds; i++ {
		moved, err := s.step()
		if err != nil {
			return s.rounds - start, err
		}
		if !moved {
			return s.rounds - start, nil
		}
	}
	return s.rounds - start, fmt.Errorf("sim: MaxRounds=%d exceeded", s.maxRounds)
}

// step executes one synchronous round: deliver everything sent last round,
// then invoke every protocol once. It reports whether any message was
// delivered or sent, or whether some node kept the round alive via
// Context.KeepAlive (a retransmission timer still pending).
func (s *Sim) step() (bool, error) {
	// Fire due churn events first: membership changes (and the repair
	// callbacks they trigger) happen in this serial section, never while
	// protocol steps are in flight.
	s.applyDueChurn()
	inboxes := s.pending
	s.pending = make([][]Envelope, s.g.N())
	s.nextSent = 0

	delivered := 0
	for _, inbox := range inboxes {
		delivered += len(inbox)
	}
	if s.tracer != nil {
		for v, inbox := range inboxes {
			for _, env := range inbox {
				s.tracer.Emit(trace.Event{Kind: trace.KindDeliver, Round: s.rounds, From: int(env.From), To: v})
			}
		}
	}

	alive := false
	if s.cfg.Parallel && s.g.N() >= parallelThreshold {
		kept, err := s.stepParallel(inboxes)
		if err != nil {
			return false, err
		}
		alive = kept
	} else {
		ctx := Context{sim: s}
		for v := 0; v < s.g.N(); v++ {
			if s.isCrashed(NodeID(v)) {
				continue
			}
			s.ingestKnowledge(NodeID(v), inboxes[v])
			if s.protos[v] == nil {
				continue
			}
			ctx.self = NodeID(v)
			s.protos[v].Step(&ctx, s.rounds, inboxes[v])
			if s.err != nil {
				return false, s.err
			}
		}
		alive = ctx.keep
	}
	if s.tracer != nil {
		s.tracer.Emit(trace.Event{Kind: trace.KindRound, Round: s.rounds, Value: delivered})
	}
	s.rounds++
	return delivered > 0 || s.nextSent > 0 || alive, nil
}

// isCrashed reports whether v is crashed under the installed fault model.
func (s *Sim) isCrashed(v NodeID) bool {
	return s.faults != nil && s.faults.crashed[v]
}

// ingestKnowledge applies ID-introduction for one receiver: it learns the
// sender and all carried IDs of each delivered message.
func (s *Sim) ingestKnowledge(v NodeID, inbox []Envelope) {
	for _, env := range inbox {
		s.knowledge[v][env.From] = true
		if c, ok := env.Msg.(Carrier); ok {
			for _, id := range c.CarriedIDs() {
				s.knowledge[v][id] = true
			}
		}
	}
}

// parallelThreshold is the node count below which sharding overhead exceeds
// the benefit.
const parallelThreshold = 64

// stagedMsg is a send buffered by a parallel worker for deterministic merge.
type stagedMsg struct {
	to  NodeID
	env Envelope
}

// stepParallel shards the node range over a worker pool. Each worker owns a
// contiguous ID range: it ingests knowledge and steps only its own nodes and
// stages sends locally, so all mutable per-node state (knowledge maps,
// counters, protocol state) is touched by exactly one goroutine. Staged
// sends are merged in shard order afterwards, which reproduces the
// sequential delivery order exactly.
func (s *Sim) stepParallel(inboxes [][]Envelope) (bool, error) {
	n := s.g.N()
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	stages := make([][]stagedMsg, workers)
	errs := make([]error, workers)
	keeps := make([]bool, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ctx := Context{sim: s, stage: &stages[w]}
			for v := lo; v < hi; v++ {
				if s.isCrashed(NodeID(v)) {
					continue
				}
				s.ingestKnowledge(NodeID(v), inboxes[v])
				if s.protos[v] == nil {
					continue
				}
				ctx.self = NodeID(v)
				ctx.err = nil
				s.protos[v].Step(&ctx, s.rounds, inboxes[v])
				if ctx.err != nil && errs[w] == nil {
					errs[w] = ctx.err
				}
			}
			keeps[w] = ctx.keep
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	for _, stage := range stages {
		for _, m := range stage {
			s.pending[m.to] = append(s.pending[m.to], m.env)
			s.nextSent++
		}
	}
	alive := false
	for _, k := range keeps {
		alive = alive || k
	}
	return alive, nil
}

func msgWords(m Message) int {
	if sz, ok := m.(Sized); ok {
		w := sz.Words()
		if w < 1 {
			return 1
		}
		return w
	}
	return 1
}

// Context is the per-node API available during Step.
type Context struct {
	sim  *Sim
	self NodeID
	// stage buffers sends for deterministic merge when stepping in
	// parallel; nil in sequential mode (sends append to the shared pending
	// queues directly).
	stage *[]stagedMsg
	// err records the first illegal operation of this worker; the
	// sequential path mirrors it into the simulation error.
	err error
	// keep accumulates KeepAlive calls across the nodes this context
	// stepped; merged into the round's liveness after all steps.
	keep bool
}

// KeepAlive marks the round as live even if no message moved. A protocol
// waiting on a retransmission or acknowledgement timer calls it every round
// while the timer is armed; otherwise a round in which a loss left nothing in
// flight would quiesce the run before the retry could fire. Protocols must
// stop calling it once their deadline passes, or Run only ends at MaxRounds.
func (c *Context) KeepAlive() { c.keep = true }

// fail records a protocol error on the appropriate sink.
func (c *Context) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	if c.stage == nil && c.sim.err == nil {
		c.sim.err = err
	}
}

// ID returns the executing node's ID.
func (c *Context) ID() NodeID { return c.self }

// Pos returns the executing node's coordinates.
func (c *Context) Pos() geom.Point { return c.sim.g.Point(c.self) }

// PosOf returns the coordinates of any node. Protocols use it only for nodes
// whose positions they legitimately learned; the simulator does not police
// position knowledge (positions travel with IDs in this model, since a
// node's ID can be queried for its position over a long-range link).
func (c *Context) PosOf(v NodeID) geom.Point { return c.sim.g.Point(v) }

// Neighbors returns the UDG neighbourhood of the executing node.
func (c *Context) Neighbors() []NodeID { return c.sim.g.Neighbors(c.self) }

// Knows reports whether the executing node knows the ID of w.
func (c *Context) Knows(w NodeID) bool { return c.sim.knowledge[c.self][w] }

// SendAdHoc sends a message over the WiFi interface; the target must be a
// unit disk neighbour.
func (c *Context) SendAdHoc(to NodeID, msg Message) {
	if !c.sim.g.HasEdge(c.self, to) {
		if c.sim.cfg.Strict {
			c.fail(fmt.Errorf("sim: node %d ad hoc send to non-neighbour %d", c.self, to))
			return
		}
	}
	c.deliver(to, msg, true)
}

// SendLong sends a message over a long-range link; the target ID must be
// known to the sender (strict mode enforces this).
func (c *Context) SendLong(to NodeID, msg Message) {
	if c.sim.cfg.Strict && !c.sim.knowledge[c.self][to] && to != c.self {
		c.fail(fmt.Errorf("sim: node %d long-range send to unknown ID %d", c.self, to))
		return
	}
	c.deliver(to, msg, false)
}

func (c *Context) deliver(to NodeID, msg Message, adhoc bool) {
	if to < 0 || int(to) >= c.sim.g.N() {
		c.fail(fmt.Errorf("sim: node %d send to invalid ID %d", c.self, to))
		return
	}
	w := msgWords(msg)
	cnt := &c.sim.counters[c.self]
	if adhoc {
		cnt.AdHocMsgs++
		cnt.AdHocWords += w
	} else {
		cnt.LongMsgs++
		cnt.LongWords += w
	}
	dropped, misrouted, forged, advdrop := false, false, false, false
	if f := c.sim.faults; f != nil {
		if f.adversary != nil && adhoc {
			// Byzantine intercept: adversarial nodes act on payload-class
			// sends (control chatter passes untouched). Decisions hash the
			// sender's current sequence, read before dropSend advances it,
			// so the loss stream of honest traffic is unperturbed.
			if pm, ok := msg.(PayloadMessage); ok {
				src, dst := pm.FlowSrc(), pm.FlowDst()
				if dst < 0 {
					dst = to // final hop: the receiver is the destination
				}
				act, alt := f.intercept(c.sim.g, c.self, to, src, dst, f.sendSeq[c.self])
				switch act {
				case advDiscard:
					if alt == c.self {
						forged = true // ack went out, payload vanishes here
					} else {
						advdrop = true // black-holed before the receiver sees it
					}
				case advRedirect:
					misrouted = true
					to = alt
				}
			}
		}
		if forged || advdrop {
			// The adversarial discard consumes a sequence slot like any send
			// but is attributed to the adversary, not the fault injector.
			f.sendSeq[c.self]++
			dropped = true
		} else {
			dropped = f.dropSend(c.self, to, adhoc)
		}
	}
	if tr := c.sim.tracer; tr != nil {
		tr.Emit(trace.Event{Kind: trace.KindSend, Round: c.sim.rounds, From: int(c.self), To: int(to), Words: w, AdHoc: adhoc})
		switch {
		case forged:
			tr.Emit(trace.Event{Kind: trace.KindForgedAck, Round: c.sim.rounds, From: int(c.self), To: int(to), Words: w, AdHoc: adhoc})
		case advdrop:
			tr.Emit(trace.Event{Kind: trace.KindAdvDrop, Round: c.sim.rounds, From: int(c.self), To: int(to), Words: w, AdHoc: adhoc})
		case dropped:
			tr.Emit(trace.Event{Kind: trace.KindDrop, Round: c.sim.rounds, From: int(c.self), To: int(to), Words: w, AdHoc: adhoc})
		}
		if misrouted {
			tr.Emit(trace.Event{Kind: trace.KindMisroute, Round: c.sim.rounds, From: int(c.self), To: int(to), Words: w, AdHoc: adhoc})
		}
	}
	if dropped {
		// The send is counted (the sender spent the work) but the message
		// never enters the delivery queue.
		return
	}
	env := Envelope{From: c.self, Msg: msg}
	if c.stage != nil {
		*c.stage = append(*c.stage, stagedMsg{to: to, env: env})
		return
	}
	c.sim.pending[to] = append(c.sim.pending[to], env)
	c.sim.nextSent++
}

// SetStorage records the executing node's persistent storage in words; the
// storage experiments read the maximum over node classes (Theorem 1.2).
func (c *Context) SetStorage(words int) {
	if words > c.sim.counters[c.self].StorageWords {
		c.sim.counters[c.self].StorageWords = words
	}
}

// Radius returns the UDG communication radius — a global model parameter
// every node knows (it is its own transmission range).
func (c *Context) Radius() float64 { return c.sim.g.Radius() }
