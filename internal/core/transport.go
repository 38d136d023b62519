// Transport: executing a routing plan as an actual message sequence on the
// simulator. Two delivery modes share one entry point:
//
//   - Lossless (the paper's model): fire-and-forget forwarding. Used whenever
//     the simulator has no faults installed; its rounds and message counts
//     are byte-identical to the original transport.
//   - Reliable: hop-by-hop acknowledgements with a per-hop retransmission
//     budget and a query-level round deadline. When a hop exhausts its
//     budget, the stranded holder notifies the source over a long-range link
//     and the source replans around the dead hop — through the same
//     Network.Route that built the original plan — then hands the new
//     remaining path back to the holder. Engaged automatically when fault
//     injection is active, or on request.
//
// Payload words never ride a long-range link in either mode: only position
// queries, failure notices and replanned waypoint lists do.

package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
)

// Plan labels for trace events: planHybrid names a plan of the hybrid
// protocol (Network.Route); the LDel² escape paths used when the geometric
// plan is unavailable or loss-detoured carry the others.
const (
	planHybrid       = "network"
	planLDelAvoid    = "ldel-avoid"
	planLDelETX      = "ldel-etx"
	planLDelFallback = "ldel-fallback"
	planSuspectAvoid = "suspect-avoid"
)

// posQuery asks the destination for its coordinates over a long-range link
// (the paper's query step: the source knows the destination's ID, so it may
// contact it directly, Section 1.2).
type posQuery struct{}

// posReply carries the coordinates back.
type posReply struct{ x, y float64 }

func (posReply) Words() int { return 2 }

// dataMsg is the payload travelling over ad hoc links in the lossless mode.
// It carries the remaining waypoint/path plan, as in Section 3 ("the
// resulting shortest path is added to the message and used for forwarding").
type dataMsg struct {
	path    []sim.NodeID // remaining nodes to visit, front = next hop
	payload int          // abstract payload size in words
}

func (m dataMsg) Words() int               { return m.payload + len(m.path) }
func (m dataMsg) CarriedIDs() []sim.NodeID { return m.path }

// rdataMsg is the payload hop under the reliable transport: dataMsg plus a
// per-sender transfer sequence number (for ack matching and duplicate
// suppression after retransmissions) and the query source's ID, so any holder
// can reach the source over a long-range link when its next hop stops
// acknowledging. plan is a diagnostic tag naming the planner that produced
// the remaining path — it rides along for trace attribution only and carries
// no modeled words.
type rdataMsg struct {
	n       int
	src     sim.NodeID
	path    []sim.NodeID
	payload int
	plan    string
	// launch tags the payload with the end-to-end launch epoch it belongs to
	// (rquery.epoch). A nack echoes it so the source can tell a live
	// corridor's distress from a relic of an epoch the relaunch already
	// replaced — resuming a stale strand would graft the abandoned corridor
	// (and whoever swallowed its payload) into the new launch's verification
	// record. Always 0 outside verified delivery, where it costs no words.
	launch int
}

func (m rdataMsg) Words() int {
	w := m.payload + len(m.path) + 2
	if m.launch > 0 {
		w++ // the launch tag rides only on relaunched corridors
	}
	return w
}
func (m rdataMsg) CarriedIDs() []sim.NodeID { return append([]sim.NodeID{m.src}, m.path...) }

// FlowSrc/FlowDst classify the hop as payload-class for the simulator's
// Byzantine intercept (sim.PayloadMessage). The flow destination is the last
// planned node; on the final hop the remaining path is empty and the receiver
// itself is the destination, signalled by -1 (the simulator substitutes the
// actual receiver). Neither accessor adds modeled words.
func (m rdataMsg) FlowSrc() sim.NodeID { return m.src }
func (m rdataMsg) FlowDst() sim.NodeID {
	if len(m.path) > 0 {
		return m.path[len(m.path)-1]
	}
	return -1
}

// hopAck confirms receipt of transfer n to the previous hop (ad hoc).
type hopAck struct{ n int }

// nackMsg tells the source its plan died in the field: the sender still holds
// the payload and the hop toward `dead` exhausted its retransmission budget.
// Long-range; seq matches the eventual resumeMsg to this holder.
type nackMsg struct {
	seq    int
	dead   sim.NodeID
	launch int // epoch of the stranded payload (see rdataMsg.launch)
}

func (m nackMsg) Words() int {
	if m.launch > 0 {
		return 3
	}
	return 2
}

// resumeMsg hands a replanned remaining path back to a stranded holder
// (long-range, source → holder). The path excludes the holder itself; plan
// tags the planner that produced it (trace attribution only, zero words).
type resumeMsg struct {
	seq  int
	path []sim.NodeID
	plan string
}

func (m resumeMsg) Words() int               { return len(m.path) + 2 }
func (m resumeMsg) CarriedIDs() []sim.NodeID { return m.path }

// TransportOptions tunes one on-simulator delivery.
type TransportOptions struct {
	// PayloadWords is the abstract payload size.
	PayloadWords int
	// Retries is the per-hop retransmission budget (also used for the
	// position handshake and failure notices); <= 0 means the default of 3.
	Retries int
	// TimeoutRounds is the query-level deadline: past it every timer stops
	// and the query is reported failed. <= 0 derives a budget from the plan
	// length and retry budget.
	TimeoutRounds int
	// Reliable forces the ack/retry protocol even on a lossless simulator.
	// By default the reliable protocol engages exactly when the simulator
	// has fault injection active.
	Reliable bool
	// LossAware selects loss-aware planning: plans and replans are biased
	// away from links whose observed loss estimate (Network.Link) makes
	// their expected transmission cost exceed a clean detour's.
	LossAware LossAwareMode
}

// LossAwareMode selects when route planning consults the link-quality
// estimates.
type LossAwareMode int

const (
	// LossAwareAuto engages loss-aware planning exactly when the simulator
	// has fault injection active — the default, mirroring how the reliable
	// protocol itself engages. On a lossless simulator it never perturbs
	// plans (and even when engaged it is inert until loss is observed).
	LossAwareAuto LossAwareMode = iota
	// LossAwareOn always consults the estimates.
	LossAwareOn
	// LossAwareOff never does: the retry-through baseline.
	LossAwareOff
)

// DefaultRetries is the per-hop retransmission budget when none is given.
const DefaultRetries = 3

// TransportReport is the measured cost of one on-simulator delivery.
type TransportReport struct {
	Outcome
	Rounds       int // communication rounds from query to delivery
	AdHocMsgs    int // ad hoc messages moved (== hops in lossless mode)
	LongMsgs     int // long-range messages (position query/response, nack/resume)
	AdHocWords   int
	LongWords    int
	DeliveredSim bool // the payload physically arrived at t in the simulation
	// Reliable-mode diagnostics (all zero in lossless mode).
	Retransmits int // timer-driven resends (data, acks excluded, handshakes included)
	Replans     int // distinct dead hops the source replanned around
	DataHops    int // successful payload handovers, replans and retries included
	Detours     int // plans replaced by loss-aware ETX detours (initial + replans)
	// Suspect-based failover diagnostics (zero unless the liveness table is
	// active and populated).
	Suspected      int // next hops this delivery newly marked suspected
	SuspectDetours int // plans diverted around suspected nodes (initial + replans)
	// Byzantine-tier diagnostics (all zero unless the simulator has
	// adversaries installed, which is when the verified-delivery protocol
	// engages).
	Verified         bool // the destination confirmed arrival end to end
	E2EResends       int  // fresh payload launches after failed verification
	MisrouteDetected int  // unforwardable payloads honest holders reported
}

// RouteOnSim executes a routing query as an actual message sequence on the
// simulator: the source asks the target for its position over a long-range
// link, then the payload travels hop by hop over ad hoc links following the
// plan computed by the hybrid protocol (which travels with the message).
// The returned report contains the plan outcome plus the genuinely measured
// rounds and per-link-class message counts. If the simulator has fault
// injection active, the reliable ack/retry/replan protocol is used.
func (nw *Network) RouteOnSim(s, t sim.NodeID, payloadWords int) (*TransportReport, error) {
	return nw.RouteOnSimOpt(s, t, TransportOptions{PayloadWords: payloadWords})
}

// RouteOnSimOpt is RouteOnSim with explicit transport options.
func (nw *Network) RouteOnSimOpt(s, t sim.NodeID, opt TransportOptions) (*TransportReport, error) {
	plan := nw.Route(s, t)
	rep := &TransportReport{Outcome: plan}
	if nw.Sim == nil {
		return rep, ErrNoSimulator
	}
	if !plan.Reached {
		return rep, fmt.Errorf("core: no plan for %d->%d", s, t)
	}
	if nw.Sim.IsCrashed(s) || nw.Sim.IsCrashed(t) {
		return rep, fmt.Errorf("core: endpoint crashed (source %d: %v, target %d: %v)",
			s, nw.Sim.IsCrashed(s), t, nw.Sim.IsCrashed(t))
	}
	if s == t {
		// A self-query is answered locally: no rounds, no messages of
		// either class (matching the plan's LongRange of 0).
		rep.DeliveredSim = true
		return rep, nil
	}

	// The paper's standing assumption: (s, t) ∈ E.
	nw.Sim.Teach(s, t)

	initialPlan := planHybrid
	if rep.PlanFallback {
		initialPlan = planLDelFallback
	}
	if opt.Reliable || nw.Sim.FaultsActive() {
		lossAware := opt.LossAware == LossAwareOn ||
			(opt.LossAware == LossAwareAuto && nw.Sim.FaultsActive())
		if lossAware && nw.applyLossDetour(&rep.Outcome, t, nil) {
			rep.Detours++
			initialPlan = planLDelETX
		}
		// Suspect-based failover: when the plan crosses a node the liveness
		// table currently suspects, divert immediately instead of burning a
		// retry budget through it. AvoidFor exempts the nodes this query is
		// elected to probe (so recoveries are eventually observed); if no path
		// avoids every suspect the plan stands and the retry protocol
		// adjudicates.
		avoid := nw.Live.AvoidFor(s, t)
		if len(avoid) > 0 && pathHitsAny(rep.Path, avoid) {
			if p := nw.suspectDetourPath(s, t, avoid, lossAware); p != nil {
				rep.Path = p
				rep.Waypoints = nil
				rep.SuspectDetours++
				initialPlan = planSuspectAvoid
				if nw.tracer != nil {
					nw.tracer.Emit(trace.Event{Kind: trace.KindDetour, From: int(s), To: int(t), Plan: planSuspectAvoid, Value: len(avoid)})
				}
			}
		}
		return nw.deliverReliable(s, t, opt, rep, lossAware, initialPlan)
	}
	return nw.deliverLossless(s, t, opt.PayloadWords, rep, initialPlan)
}

// counterProbe snapshots the global counter totals so a delivery can report
// exactly the messages it moved. Totals suffice — the report only ever sums
// the per-node deltas — and they keep the probe allocation-free where the old
// per-node snapshot copied an n-sized counter slice per query.
type counterProbe struct {
	startRounds int
	before      sim.Counters
}

func (nw *Network) probe() counterProbe {
	return counterProbe{startRounds: nw.Sim.Rounds(), before: nw.Sim.TotalCounters()}
}

func (p counterProbe) fill(nw *Network, rep *TransportReport) {
	rep.Rounds = nw.Sim.Rounds() - p.startRounds
	after := nw.Sim.TotalCounters()
	rep.AdHocMsgs += after.AdHocMsgs - p.before.AdHocMsgs
	rep.LongMsgs += after.LongMsgs - p.before.LongMsgs
	rep.AdHocWords += after.AdHocWords - p.before.AdHocWords
	rep.LongWords += after.LongWords - p.before.LongWords
}

// deliverLossless is the paper's fire-and-forget transport, unchanged except
// that a plan exhausting at the wrong node is now recorded and reported as a
// specific misrouted-plan error instead of a generic non-arrival. planLabel
// names the planner that produced the plan, for trace attribution.
func (nw *Network) deliverLossless(s, t sim.NodeID, payloadWords int, rep *TransportReport, planLabel string) (*TransportReport, error) {
	path := rep.Path
	pr := nw.probe()
	tr := nw.tracer

	// Scalar flags replace the old n-sized per-node scratch slices (~1 MB per
	// query at 10⁶ nodes): started is written only from s's step and
	// delivered only from t's, so parallel stepping stays race-free without
	// per-node storage. Misrouted holders — any node, error path only — go
	// into a small mutex-guarded sparse set instead.
	var started, delivered bool
	var misMu sync.Mutex
	var misroutedAt []sim.NodeID
	nw.Sim.SetAllProtos(func(v sim.NodeID) sim.Proto {
		return sim.ProtoFunc(func(ctx *sim.Context, round int, inbox []sim.Envelope) {
			if v == s && !started {
				started = true
				ctx.SendLong(t, posQuery{})
				return
			}
			for _, env := range inbox {
				switch msg := env.Msg.(type) {
				case posQuery:
					p := ctx.Pos()
					ctx.SendLong(env.From, posReply{x: p.X, y: p.Y})
				case posReply:
					// Position known: launch the payload along the plan. A
					// single-node plan with s != t has nowhere to forward to
					// and must not be counted as delivery at t.
					if v == s && len(path) > 1 {
						if tr != nil {
							tr.Emit(trace.Event{Kind: trace.KindHopSend, Round: round, From: int(v), To: int(path[1]), Attempt: 1, Plan: planLabel})
						}
						ctx.SendAdHoc(path[1], dataMsg{path: path[2:], payload: payloadWords})
					}
				case dataMsg:
					if v == t && len(msg.path) == 0 {
						delivered = true
						return
					}
					if len(msg.path) > 0 {
						if tr != nil {
							tr.Emit(trace.Event{Kind: trace.KindHopSend, Round: round, From: int(v), To: int(msg.path[0]), Attempt: 1, Plan: planLabel})
						}
						ctx.SendAdHoc(msg.path[0], dataMsg{path: msg.path[1:], payload: msg.payload})
					} else {
						// Plan exhausted before reaching t: the payload is
						// stranded here. Record where for the error report.
						misMu.Lock()
						misroutedAt = append(misroutedAt, v)
						misMu.Unlock()
					}
				}
			}
		})
	})
	if _, err := nw.Sim.Run(); err != nil {
		// Run aborted (MaxRounds exhaustion or a strict-mode violation): the
		// rounds and messages spent up to the abort are real cost — fill the
		// report before returning so callers that tolerate partial failures
		// (experiment sweeps) still account the work.
		pr.fill(nw, rep)
		return rep, err
	}
	pr.fill(nw, rep)
	// Only the target's own flag counts as physical delivery; the s == t
	// case was answered before any message moved.
	rep.DeliveredSim = delivered
	if !rep.DeliveredSim {
		if v, ok := minID(misroutedAt); ok {
			return rep, fmt.Errorf("core: misrouted plan: remaining path exhausted at node %d before reaching %d", v, t)
		}
		return rep, fmt.Errorf("core: payload did not arrive at %d", t)
	}
	return rep, nil
}

// minID returns the smallest ID in the sparse set (keeping error messages
// deterministic regardless of append order under parallel stepping).
func minID(ids []sim.NodeID) (sim.NodeID, bool) {
	if len(ids) == 0 {
		return 0, false
	}
	m := ids[0]
	for _, v := range ids[1:] {
		if v < m {
			m = v
		}
	}
	return m, true
}

// --- reliable transport ---

// ackWait is the rounds a sender waits before declaring an attempt lost: one
// round for its message to arrive, one for the answer to come back.
const ackWait = 2

// verifyWait is the cadence of end-to-end verification polls: the source asks
// the destination over the long-range edge whether the payload arrived, on
// this period, until it hears yes (or gives the launch up).
const verifyWait = 2 * ackWait

// verifyQuery polls the destination end to end: "did my payload arrive?" —
// the freeloader-detection probe a forged hop acknowledgement cannot answer
// (PAPERS.md: "send messages through the suspect node and see if they are
// delivered"). n tags the payload launch being verified. Long-range.
type verifyQuery struct{ n int }

func (verifyQuery) Words() int { return 1 }

// verifyReply is the destination's answer. A colluding adversarial
// destination forges delivered=true for flows a fellow adversary discarded.
type verifyReply struct {
	n         int
	delivered bool
}

func (verifyReply) Words() int { return 2 }

// rpending is an outstanding transfer awaiting its hop acknowledgement.
type rpending struct {
	to       sim.NodeID
	msg      rdataMsg
	sentAt   int
	attempts int
}

// rstrand is a payload parked at a holder whose next hop died, waiting for a
// replanned path from the source.
type rstrand struct {
	seq      int
	payload  int
	sentAt   int
	attempts int
	dead     sim.NodeID
	launch   int // epoch of the held payload (see rdataMsg.launch)
}

// linkObs is one completed transfer's outcome over a directed ad hoc link,
// recorded by the sending node and folded into Network.Link after the run
// (per-node slices keep recording race-free under parallel stepping; the
// fold happens in node order, so the estimates are deterministic).
type linkObs struct {
	to       sim.NodeID
	attempts int
	acked    bool
}

// rnode is the per-node reliable-transport state. Each node's state is
// touched only by its own protocol step, so parallel stepping stays
// race-free; the driver reads it after the run has quiesced.
type rnode struct {
	pends     []*rpending
	strands   []*rstrand
	nextN     int
	seen      map[[2]int]bool // (sender, transfer number) pairs received; made on first receipt
	delivered bool
	misrouted bool
	hopsIn    int // fresh (non-duplicate) payload receipts
	retrans   int
	suspects  int // next hops this node marked suspected (retry exhaustion)
	misdetect int // unforwardable payloads this (honest) holder reported
	obs       []linkObs
	// abandoned is a strand given up after its nacks went unanswered, kept so
	// the query error says where and why instead of "did not arrive".
	abandoned *rstrand
}

// suspectDetourPath plans s→t around the avoid set over LDel²: ETX-weighted
// when loss-aware planning is engaged (the detour then also prefers low-loss
// links), plain node-avoiding otherwise. Returns nil when no path avoids
// every node of the set — for a suspect set, suspicion is not proof of death,
// so the caller then routes through the suspect and lets the retry protocol
// adjudicate.
func (nw *Network) suspectDetourPath(s, t sim.NodeID, avoid map[sim.NodeID]bool, lossAware bool) []sim.NodeID {
	if lossAware {
		p, _, _ := nw.LDel.ShortestPathWeighted(s, t, nw.etxWeight(t, avoid))
		return p
	}
	p, _, _ := nw.LDel.ShortestPathAvoiding(s, t, avoid)
	return p
}

// rquery is one reliable delivery as an explicit state machine: the query's
// parameters, the per-node protocol state and the source's recovery state,
// with one method per protocol transition —
//
//	launch        the payload starts down a fresh plan from the source
//	forward       a holder acks a payload hop, then delivers, strands or passes it on
//	ack           a hop acknowledgement retires a pending transfer
//	hopExhausted  a hop spent its retry budget: the source replans, a holder strands
//	nack, resume  the source replans around the blamed hop; the holder continues
//	verify        the destination's answer to an end-to-end poll reaches the source
//	relaunch      an unverified launch is resent end to end around its corridor
//	giveUp        the query fails with a reason and the source's timers stop
//	finish        the quiesced run becomes the report, link telemetry and error
//
// step, each node's simulator protocol, only dispatches its inbox and due
// timers to them, and every recovery that needs a fresh path climbs the one
// ladder in replanFrom.
type rquery struct {
	nw          *Network
	tr          *trace.Tracer
	rep         *TransportReport
	pr          counterProbe
	s, t        sim.NodeID
	payload     int
	retries     int
	initialPlan string // planner label of the starting plan, for trace attribution
	timeout     int    // query-level round budget
	deadline    int    // simulator round at which every timer stops
	// verif engages end-to-end verified delivery exactly when the simulator
	// has Byzantine adversaries: hop acks are trustworthy against plain loss
	// and crashes, and keeping it off preserves those runs byte for byte.
	verif bool
	// lossAware makes every replan consult the link-quality estimates, so it
	// may substitute an ETX-weighted detour for the geometric plan.
	lossAware bool
	// launchBudget is how long a launch may stay unverified (and the source
	// idle) before a relaunch: a clean traversal plus one retry per hop.
	launchBudget int
	st           []rnode

	// Source state.
	posSentAt      int
	posAttempts    int
	havePos        bool
	dead           map[sim.NodeID]bool
	replans        int
	detours        int
	suspectDetours int
	failure        string
	// Verified-delivery state (engaged only under adversaries).
	verified   bool                // the destination confirmed arrival
	verSentAt  int                 // round of the last verification poll (-1: none yet)
	verFails   int                 // "not delivered" replies since the current launch
	epoch      int                 // payload launch number (0 = initial)
	launchedAt int                 // round the current launch (or its last resume) started
	launchSeen map[sim.NodeID]bool // interior nodes handed a leg of the current launch
	resends    int                 // end-to-end relaunches after failed verification
	// extraAvoid is set transiently around a relaunch replan: the interior
	// nodes of the launch that just failed verification, which replanFrom
	// treats like suspects (soft: readmitted if no path clears them).
	extraAvoid map[sim.NodeID]bool
	// resumeBudget caps how many stranded corridors the current launch may
	// resume. Every resume opens a corridor that can strand and nack again,
	// so under misrouting an unbounded policy breeds corridors faster than
	// they die, outliving any deadline. Refilled per launch.
	resumeBudget int
}

// deliverReliable runs the ack/retry/replan protocol for one query: an
// rquery stepped on the simulator until it quiesces.
func (nw *Network) deliverReliable(s, t sim.NodeID, opt TransportOptions, rep *TransportReport, lossAware bool, initialPlan string) (*TransportReport, error) {
	q := &rquery{
		nw: nw, tr: nw.tracer, rep: rep, s: s, t: t,
		payload: opt.PayloadWords, retries: opt.Retries, timeout: opt.TimeoutRounds,
		initialPlan: initialPlan, verif: nw.Sim.AdversaryActive(), lossAware: lossAware,
		st:        make([]rnode, nw.G.N()),
		posSentAt: -1, verSentAt: -1,
		dead: make(map[sim.NodeID]bool), launchSeen: make(map[sim.NodeID]bool),
	}
	if q.retries <= 0 {
		q.retries = DefaultRetries
	}
	if q.timeout <= 0 {
		// Every hop may burn (retries+1) attempts of ackWait+1 rounds, plus
		// handshake, nack/resume round trips and slack for longer replans.
		// Verified delivery may relaunch `retries` times: its budget doubles.
		q.timeout = (len(rep.Path)+8)*(ackWait+1)*(q.retries+1) + 32
		if q.verif {
			q.timeout *= 2
		}
	}
	q.launchBudget = (len(rep.Path) + 2) * (ackWait + 1)
	q.pr = nw.probe()
	q.deadline = nw.Sim.Rounds() + q.timeout
	nw.Sim.SetAllProtos(func(v sim.NodeID) sim.Proto {
		return sim.ProtoFunc(func(ctx *sim.Context, round int, inbox []sim.Envelope) {
			q.step(v, ctx, round, inbox)
		})
	})
	_, err := nw.Sim.Run()
	return q.finish(err)
}

// step is node v's protocol for one round: the source opens the position
// handshake, every inbox message goes to its transition, then due timers run.
func (q *rquery) step(v sim.NodeID, ctx *sim.Context, round int, inbox []sim.Envelope) {
	me := &q.st[v]
	if v == q.s && q.posSentAt < 0 && q.failure == "" {
		q.posSentAt = round
		q.posAttempts = 1
		ctx.SendLong(q.t, posQuery{})
	}
	for _, env := range inbox {
		switch msg := env.Msg.(type) {
		case posQuery:
			p := ctx.Pos()
			ctx.SendLong(env.From, posReply{x: p.X, y: p.Y})
		case posReply:
			if v == q.s && !q.havePos {
				q.havePos = true
				if len(q.rep.Path) < 2 {
					me.misrouted = true // a plan of one node with s != t cannot deliver
				} else {
					q.launch(ctx, me, round, q.rep.Path, q.initialPlan)
				}
			}
		case rdataMsg:
			q.forward(ctx, me, round, env.From, msg)
		case hopAck:
			q.ack(me, v, round, env.From, msg.n)
		case verifyQuery:
			// The destination answers truthfully — unless it is a colluding
			// adversary covering for a fellow adversary's discarded payload.
			laundered := q.verif && q.nw.Sim.AdversaryLaundered(env.From, v)
			ctx.SendLong(env.From, verifyReply{n: msg.n, delivered: me.delivered || laundered})
		case verifyReply:
			if v == q.s {
				q.verify(msg)
			}
		case nackMsg:
			if v == q.s {
				q.nack(ctx, round, env.From, msg)
			}
		case resumeMsg:
			q.resume(ctx, me, round, msg)
		}
	}
	if round >= q.deadline {
		return // deadline passed: all timers stop, the run quiesces
	}
	if v == q.s {
		q.handshakeTimer(ctx, me, round)
		q.verifyTimer(ctx, me, round)
	}
	q.hopTimers(ctx, me, v, round)
	q.nackTimers(ctx, me, v, round)
	if len(me.pends) > 0 || len(me.strands) > 0 {
		ctx.KeepAlive()
	}
}

// send starts (and registers) one transfer to path[0] carrying the rest of
// path; plan tags the planner whose path this leg executes, epoch the launch
// the payload belongs to.
func (q *rquery) send(ctx *sim.Context, me *rnode, round int, path []sim.NodeID, payload int, plan string, epoch int) {
	m := rdataMsg{n: me.nextN, src: q.s, path: path[1:], payload: payload, plan: plan, launch: epoch}
	me.nextN++
	if q.tr != nil {
		q.tr.Emit(trace.Event{Kind: trace.KindHopSend, Round: round, From: int(ctx.ID()), To: int(path[0]), Seq: m.n, Attempt: 1, Plan: plan})
	}
	ctx.SendAdHoc(path[0], m)
	me.pends = append(me.pends, &rpending{to: path[0], msg: m, sentAt: round, attempts: 1})
}

// launch sends the payload from the source down path as the current launch
// (the initial plan once the target's position is known, or a relaunch),
// restarting its relaunch clock and refilling its resume budget.
func (q *rquery) launch(ctx *sim.Context, me *rnode, round int, path []sim.NodeID, plan string) {
	q.launchedAt = round
	q.resumeBudget = len(path) + 2*q.retries
	q.noteLaunchPath(path)
	q.send(ctx, me, round, path[1:], q.payload, plan, q.epoch)
}

// noteLaunchPath records the interior nodes of a path handed out for the
// current launch: a relaunch diversifies around them, and only a verified
// launch's nodes earn liveness probation credit.
func (q *rquery) noteLaunchPath(path []sim.NodeID) {
	for _, v := range path {
		if v != q.s && v != q.t {
			q.launchSeen[v] = true
		}
	}
}

// forward is a holder's transition on a payload hop. It always acknowledges —
// the previous hop may be retransmitting because an earlier ack was lost —
// then suppresses duplicates and delivers, strands or passes the payload on.
func (q *rquery) forward(ctx *sim.Context, me *rnode, round int, from sim.NodeID, msg rdataMsg) {
	ctx.SendAdHoc(from, hopAck{n: msg.n})
	key := [2]int{int(from), msg.n}
	if me.seen[key] {
		return
	}
	if me.seen == nil {
		me.seen = make(map[[2]int]bool)
	}
	me.seen[key] = true
	me.hopsIn++
	v := ctx.ID()
	switch {
	case v == q.t && (len(msg.path) == 0 || q.verif):
		// Arrival at the destination delivers; under verification even with
		// plan leftover (a misroute can land the payload at t early).
		me.delivered = true
	case q.verif && (len(msg.path) == 0 || !q.nw.G.HasEdge(v, msg.path[0])):
		// The plan ends at the wrong node or its next hop is no neighbor
		// (strict mode would abort the run): the payload was misrouted here.
		// Blame the forwarder and ask the source for a fresh path.
		q.strand(ctx, me, msg.payload, msg.launch, from,
			trace.Event{Kind: trace.KindMisrouteDetected, Round: round, From: int(v), To: int(from)})
	case len(msg.path) == 0:
		me.misrouted = true
	default:
		q.send(ctx, me, round, msg.path, msg.payload, msg.plan, msg.launch)
	}
}

// ack retires the pending transfer a hop acknowledgement matches and records
// the link's outcome.
func (q *rquery) ack(me *rnode, v sim.NodeID, round int, from sim.NodeID, n int) {
	for i, p := range me.pends {
		if p.to == from && p.msg.n == n {
			if q.tr != nil {
				q.tr.Emit(trace.Event{Kind: trace.KindHopAck, Round: round, From: int(v), To: int(p.to), Seq: p.msg.n, Attempt: p.attempts, Plan: p.msg.plan})
			}
			me.obs = append(me.obs, linkObs{to: p.to, attempts: p.attempts, acked: true})
			me.pends = append(me.pends[:i], me.pends[i+1:]...)
			return
		}
	}
}

// verify is the source's transition on the destination's answer to an
// end-to-end poll of the current launch.
func (q *rquery) verify(msg verifyReply) {
	if msg.n != q.epoch || q.verified || q.failure != "" {
		return
	}
	if msg.delivered {
		q.verified = true
	} else {
		q.verFails++
	}
}

// hopTimers runs v's hop retransmission timers: an unacknowledged transfer is
// resent until its budget is spent, then handed to hopExhausted.
func (q *rquery) hopTimers(ctx *sim.Context, me *rnode, v sim.NodeID, round int) {
	for i := 0; i < len(me.pends); {
		p := me.pends[i]
		switch {
		case round < p.sentAt+ackWait:
			i++
		case p.attempts <= q.retries:
			p.attempts++
			p.sentAt = round
			me.retrans++
			if q.tr != nil {
				q.tr.Emit(trace.Event{Kind: trace.KindHopRetry, Round: round, From: int(v), To: int(p.to), Seq: p.msg.n, Attempt: p.attempts, Plan: p.msg.plan})
			}
			ctx.SendAdHoc(p.to, p.msg)
			i++
		default:
			me.pends = append(me.pends[:i], me.pends[i+1:]...)
			q.hopExhausted(ctx, me, v, round, p)
		}
	}
}

// hopExhausted is the transition of a hop that spent its retransmission
// budget: the next hop is dead. It is suspected in the shared liveness table,
// so later plans of every query route around it without burning another
// budget; then the source replans locally and any other holder strands.
func (q *rquery) hopExhausted(ctx *sim.Context, me *rnode, v sim.NodeID, round int, p *rpending) {
	me.obs = append(me.obs, linkObs{to: p.to, attempts: p.attempts, acked: false})
	q.suspect(me, trace.Event{Round: round, From: int(v), To: int(p.to), Attempt: p.attempts, Plan: p.msg.plan})
	if v != q.s {
		q.strand(ctx, me, p.msg.payload, p.msg.launch, p.to,
			trace.Event{Kind: trace.KindHopNack, Round: round, From: int(v), To: int(p.to), Attempt: 1, Plan: p.msg.plan})
		return
	}
	full, plan, _ := q.replanAround(round, q.s, p.to, false)
	if full == nil {
		return
	}
	q.launchedAt = round
	q.noteLaunchPath(full)
	q.send(ctx, me, round, full[1:], p.msg.payload, plan, q.epoch)
}

// suspect marks e.To suspected in the shared liveness table; a new suspicion
// is counted and traced as e.
func (q *rquery) suspect(me *rnode, e trace.Event) {
	if !q.nw.Live.Suspect(sim.NodeID(e.To)) {
		return
	}
	me.suspects++
	if q.tr != nil {
		e.Kind = trace.KindSuspect
		q.tr.Emit(e)
	}
}

// strand parks a payload its holder cannot pass on and nacks the source,
// blaming dead. why is the trace event of the cause, completed with the
// strand's sequence number: hop_nack after an exhausted retry budget, or
// misroute_detected for a plan the holder cannot follow, which also suspects
// the forwarder. The first notice is a first send, not a retransmission.
func (q *rquery) strand(ctx *sim.Context, me *rnode, payload, epoch int, dead sim.NodeID, why trace.Event) {
	me.nextN++
	sd := &rstrand{seq: me.nextN, payload: payload, sentAt: why.Round, attempts: 1, dead: dead, launch: epoch}
	me.strands = append(me.strands, sd)
	if q.tr != nil {
		why.Seq = sd.seq
		q.tr.Emit(why)
	}
	if why.Kind == trace.KindMisrouteDetected {
		me.misdetect++
		q.suspect(me, trace.Event{Round: why.Round, From: why.From, To: int(dead)})
	}
	ctx.SendLong(q.s, nackMsg{seq: sd.seq, dead: dead, launch: epoch})
}

// nackTimers runs v's failure-notice timers: an unanswered nack is resent
// until the budget is spent; then the payload is abandoned here, and the
// strand is kept so the query error names the holder and the dead hop.
func (q *rquery) nackTimers(ctx *sim.Context, me *rnode, v sim.NodeID, round int) {
	for i := 0; i < len(me.strands); {
		sd := me.strands[i]
		switch {
		case round < sd.sentAt+ackWait:
			i++
		case sd.attempts > q.retries:
			me.abandoned = sd
			me.strands = append(me.strands[:i], me.strands[i+1:]...)
		default:
			sd.attempts++
			sd.sentAt = round
			me.retrans++
			if q.tr != nil {
				q.tr.Emit(trace.Event{Kind: trace.KindHopNack, Round: round, From: int(v), To: int(sd.dead), Seq: sd.seq, Attempt: sd.attempts})
			}
			ctx.SendLong(q.s, nackMsg{seq: sd.seq, dead: sd.dead, launch: sd.launch})
			i++
		}
	}
}

// nack is the source's transition on a stranded holder's failure notice: it
// replans around the blamed hop and resumes the holder on the new path, or
// releases the strand (an empty resume) when the corridor is given up.
func (q *rquery) nack(ctx *sim.Context, round int, holder sim.NodeID, msg nackMsg) {
	if !q.havePos || q.failure != "" {
		return
	}
	if q.verif {
		switch {
		case round >= q.deadline:
			// Misrouted payloads strand wherever they land, so nacks keep
			// arriving after the timers stop; opening no fresh corridor past
			// the deadline is what lets the run quiesce.
			return
		case msg.launch != q.epoch:
			// A relaunch replaced this strand's epoch: release it. Resuming
			// would graft the abandoned corridor — and whoever swallowed its
			// payload — into the current launch's verification record.
			ctx.SendLong(holder, resumeMsg{seq: msg.seq})
			return
		case q.resumeBudget <= 0:
			// The launch spent its corridor budget: release the strand and
			// let the relaunch replan from the source.
			ctx.SendLong(holder, resumeMsg{seq: msg.seq})
			q.expireLaunch(round)
			return
		}
		q.resumeBudget--
	}
	// Under verification blame is unreliable — a forger whose discarded
	// forward went unacked nacks its innocent next hop, endpoints included —
	// so s and t are immune; otherwise an unresponsive target ends the query.
	full, plan, expired := q.replanAround(round, holder, msg.dead, q.verif)
	if full == nil {
		if expired {
			ctx.SendLong(holder, resumeMsg{seq: msg.seq})
		}
		return
	}
	// Record the resumed leg's nodes for verification credit. Deliberately
	// NOT a relaunch-clock reset: a forger that keeps nacking (blaming its
	// own neighbors) must not be able to postpone the relaunch forever.
	q.noteLaunchPath(full)
	ctx.SendLong(holder, resumeMsg{seq: msg.seq, path: full[1:], plan: plan})
}

// resume is a stranded holder's transition on the source's answer: a fresh
// path restarts the payload; an empty one releases the strand (under
// verification) or means the plan cannot continue from here.
func (q *rquery) resume(ctx *sim.Context, me *rnode, round int, msg resumeMsg) {
	for i, sd := range me.strands {
		if sd.seq != msg.seq {
			continue
		}
		me.strands = append(me.strands[:i], me.strands[i+1:]...)
		if len(msg.path) > 0 {
			q.send(ctx, me, round, msg.path, sd.payload, msg.plan, sd.launch)
		} else if !q.verif {
			me.misrouted = true
		}
		return
	}
}

// replanAround is the mark-dead-and-replan step of a nack and of the
// source's own exhausted hop: dead joins the dead set (unless endpointsImmune
// and it is s or t) and a path from holder is planned. With none left the
// launch expires if a relaunch may recover — a forger can exhaust a holder's
// neighborhood with bogus nacks without cutting s from t — else it gives up.
func (q *rquery) replanAround(round int, holder, dead sim.NodeID, endpointsImmune bool) (path []sim.NodeID, plan string, expired bool) {
	if !q.dead[dead] && !(endpointsImmune && (dead == q.s || dead == q.t)) {
		q.dead[dead] = true
		q.replans++
	}
	path, plan, ok := q.replanFrom(holder)
	if !ok || len(path) < 2 {
		if q.verif && q.epoch < q.retries {
			q.expireLaunch(round)
			return nil, "", true
		}
		q.giveUp("no path from %d to %d around dead nodes %v", holder, q.t, deadList(q.dead))
		return nil, "", false
	}
	if q.tr != nil {
		q.tr.Emit(trace.Event{Kind: trace.KindReplan, Round: round, From: int(holder), To: int(q.t), Plan: plan, Value: len(q.dead)})
	}
	return path, plan, false
}

// replanFrom computes a fresh hop path holder→t around the dead set, the
// liveness table's current suspects and, around a relaunch, the failed
// launch's corridor. It asks the hybrid planner first (Network.Route;
// loss-detoured in loss-aware mode). If that plan crosses an avoided
// node it climbs a ladder of LDel² searches over shrinking avoid sets:
// dead+suspects; the dead alone (mid-query replans never probe a suspect,
// but suspicion is soft and readmitted when no path clears it); and, under
// verification only, nothing — a frame-shifting forger can fill the dead set
// with innocent neighbors until the target looks disconnected, and a
// readmitted node that really is dead fails verification, leaving the
// failure to the relaunch. The second return names the producing planner.
func (q *rquery) replanFrom(holder sim.NodeID) ([]sim.NodeID, string, bool) {
	suspects := mergeAvoid(q.nw.Live.AvoidSet(holder, q.t), q.extraAvoid)
	avoid := mergeAvoid(q.dead, suspects)
	out := q.nw.Route(holder, q.t)
	if out.Reached && !pathHitsAny(out.Path, avoid) {
		plan := planHybrid
		if out.PlanFallback {
			plan = planLDelFallback
		}
		if q.lossAware && q.nw.applyLossDetour(&out, q.t, avoid) {
			q.detours++
			plan = planLDelETX
		}
		return out.Path, plan, true
	}
	ladder := []map[sim.NodeID]bool{avoid}
	if len(suspects) > 0 {
		ladder = append(ladder, q.dead)
	}
	if q.verif {
		ladder = append(ladder, nil)
	}
	// ETX multipliers are finite (maxLinkLoss caps them), so a weighted
	// search fails exactly when the plain avoiding one does: one search per
	// rung suffices in either mode.
	escape := planLDelAvoid
	if q.lossAware {
		escape = planLDelETX
	}
	for rung, set := range ladder {
		p := q.nw.suspectDetourPath(holder, q.t, set, q.lossAware)
		if p == nil {
			continue
		}
		if rung == 0 && out.Reached && !pathHitsAny(out.Path, q.dead) {
			// Only suspects blocked the hybrid plan: a suspect detour.
			q.suspectDetours++
			return p, planSuspectAvoid, true
		}
		return p, escape, true
	}
	return nil, "", false
}

// expireLaunch abandons the current launch as unrecoverable by forcing the
// relaunch timer due: the next verification round relaunches from the source
// around the abandoned corridor.
func (q *rquery) expireLaunch(round int) {
	q.verFails++
	q.launchedAt = round - q.launchBudget
}

// giveUp fails the query: the source's timers stop and finish reports why.
func (q *rquery) giveUp(format string, args ...any) {
	q.failure = fmt.Sprintf(format, args...)
}

// handshakeTimer resends the source's unanswered position query until the
// retry budget is spent.
func (q *rquery) handshakeTimer(ctx *sim.Context, me *rnode, round int) {
	if q.havePos || q.failure != "" {
		return
	}
	if round >= q.posSentAt+ackWait {
		if q.posAttempts > q.retries {
			q.giveUp("position query to %d unanswered after %d attempts", q.t, q.posAttempts)
			return
		}
		q.posAttempts++
		q.posSentAt = round
		me.retrans++
		ctx.SendLong(q.t, posQuery{})
	}
	ctx.KeepAlive()
}

// verifyTimer runs verified delivery at the source: it polls the destination
// end to end until it confirms arrival, and relaunches when a launch stays
// unverified past its budget with nothing left in flight at the source.
func (q *rquery) verifyTimer(ctx *sim.Context, me *rnode, round int) {
	if !q.verif || !q.havePos || q.verified || me.misrouted || q.failure != "" {
		return
	}
	if q.verSentAt < 0 || round >= q.verSentAt+verifyWait {
		q.verSentAt = round
		ctx.SendLong(q.t, verifyQuery{n: q.epoch})
	}
	if q.verFails > 0 && round >= q.launchedAt+q.launchBudget &&
		len(me.pends) == 0 && len(me.strands) == 0 {
		q.relaunch(ctx, me, round)
	}
	if q.failure == "" {
		ctx.KeepAlive()
	}
}

// relaunch resends the payload end to end after a launch failed
// verification — what a forged hop ack produces: every hop "succeeded", the
// payload is gone, and no nack will come. The new launch prefers a corridor
// disjoint from the failed one, which a selective-drop adversary would
// black-hole the same way again.
func (q *rquery) relaunch(ctx *sim.Context, me *rnode, round int) {
	if q.tr != nil {
		q.tr.Emit(trace.Event{Kind: trace.KindVerifyFail, Round: round, From: int(q.s), To: int(q.t), Attempt: q.epoch + 1})
	}
	if q.epoch >= q.retries {
		q.giveUp("delivery to %d unverified after %d launches", q.t, q.epoch+1)
		return
	}
	q.extraAvoid = q.launchSeen
	full, plan, ok := q.replanFrom(q.s)
	q.extraAvoid = nil
	if !ok || len(full) < 2 {
		q.giveUp("no relaunch path from %d to %d around dead nodes %v", q.s, q.t, deadList(q.dead))
		return
	}
	q.epoch++
	q.verFails = 0
	q.verSentAt = round
	q.resends++
	clear(q.launchSeen)
	if q.tr != nil {
		q.tr.Emit(trace.Event{Kind: trace.KindE2EResend, Round: round, From: int(q.s), To: int(q.t), Plan: plan, Value: q.resends})
	}
	q.launch(ctx, me, round, full, plan)
}

// finish turns the quiesced run into the report. An aborted run (MaxRounds
// exhaustion or a strict-mode violation) still fills it — the work spent up
// to the abort is real cost experiment sweeps account — but teaches the link
// and liveness tables nothing.
func (q *rquery) finish(runErr error) (*TransportReport, error) {
	rep := q.rep
	q.pr.fill(q.nw, rep)
	rep.DeliveredSim = q.st[q.t].delivered
	rep.Replans = q.replans
	rep.Detours += q.detours
	rep.SuspectDetours += q.suspectDetours
	rep.Verified = q.verified
	rep.E2EResends = q.resends
	for v := range q.st {
		rep.Retransmits += q.st[v].retrans
		rep.DataHops += q.st[v].hopsIn
		rep.Suspected += q.st[v].suspects
		rep.MisrouteDetected += q.st[v].misdetect
	}
	if runErr != nil {
		return rep, runErr
	}
	q.learn()
	if rep.DeliveredSim {
		return rep, nil
	}
	return rep, q.undelivered()
}

// learn feeds the ack outcomes back into the link-quality estimates and the
// liveness table's probation counters, in node order so the fold is
// deterministic; lossless runs leave both untouched. Under adversaries a
// telemetry-lying node's own observations are inverted (it frames whatever
// it touched as dead), and probation credit requires end-to-end verification
// of the path the node was on: a forged hop ack looks clean one hop upstream,
// so it must not readmit a suspect, not even when a relaunch around the
// forger later delivered.
func (q *rquery) learn() {
	for v := range q.st {
		liar := q.verif && q.nw.Sim.AdversaryBehaviorOf(sim.NodeID(v))&sim.AdvLieTelemetry != 0
		for _, o := range q.st[v].obs {
			attempts, acked := o.attempts, o.acked
			if liar {
				attempts, acked = q.retries+1, false
			}
			if q.nw.Link != nil {
				q.nw.Link.Observe(sim.NodeID(v), o.to, attempts, acked)
			}
			credit := !q.verif || (q.verified && (q.launchSeen[o.to] || o.to == q.t))
			q.nw.Live.ObserveAck(o.to, attempts, acked && credit)
		}
	}
}

// undelivered names why the payload did not arrive, most specific cause
// first.
func (q *rquery) undelivered() error {
	for v := range q.st {
		if q.st[v].misrouted {
			return fmt.Errorf("core: misrouted plan: remaining path exhausted at node %d before reaching %d", v, q.t)
		}
	}
	if q.failure != "" {
		return fmt.Errorf("core: delivery %d->%d failed: %s", q.s, q.t, q.failure)
	}
	for v := range q.st {
		if sd := q.st[v].abandoned; sd != nil {
			return fmt.Errorf("core: stranded payload at node %d: next hop %d dead and %d failure notices to source %d went unanswered", v, sd.dead, sd.attempts, q.s)
		}
	}
	return fmt.Errorf("core: payload did not arrive at %d within %d rounds (retries %d)", q.t, q.timeout, q.retries)
}

// mergeAvoid unions two avoid sets, reusing either when the other is empty.
func mergeAvoid(a, b map[sim.NodeID]bool) map[sim.NodeID]bool {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := maps.Clone(a)
	maps.Copy(out, b)
	return out
}

// pathHitsAny reports whether any node of path is in the set.
func pathHitsAny(path []sim.NodeID, set map[sim.NodeID]bool) bool {
	for _, v := range path {
		if set[v] {
			return true
		}
	}
	return false
}

// deadList renders a dead set deterministically (sorted) for error messages.
func deadList(set map[sim.NodeID]bool) []sim.NodeID {
	out := make([]sim.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
