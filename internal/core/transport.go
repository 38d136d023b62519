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
//     planSource path (Network or Engine plan cache) that built the original
//     plan — then hands the new remaining path back to the holder. Engaged
//     automatically when fault injection is active, or on request.
//
// Payload words never ride a long-range link in either mode: only position
// queries, failure notices and replanned waypoint lists do.

package core

import (
	"fmt"
	"sync"

	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
)

// Plan-source labels for trace events: the hybrid planners name themselves
// (planSource.label — "network" or "engine"); the LDel² escape paths used
// when the geometric plan is unavailable or loss-detoured carry these.
const (
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
	// (rsourceState.launch). A nack echoes it so the source can tell a live
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
	return nw.routeOnSim(nw, s, t, TransportOptions{PayloadWords: payloadWords})
}

// RouteOnSimOpt is RouteOnSim with explicit transport options.
func (nw *Network) RouteOnSimOpt(s, t sim.NodeID, opt TransportOptions) (*TransportReport, error) {
	return nw.routeOnSim(nw, s, t, opt)
}

// RouteOnSim executes the query on the simulator like Network.RouteOnSim but
// plans (and replans, under faults) through the engine's plan cache.
func (e *Engine) RouteOnSim(s, t sim.NodeID, payloadWords int) (*TransportReport, error) {
	return e.nw.routeOnSim(e, s, t, TransportOptions{PayloadWords: payloadWords})
}

// RouteOnSimOpt is Engine.RouteOnSim with explicit transport options.
func (e *Engine) RouteOnSimOpt(s, t sim.NodeID, opt TransportOptions) (*TransportReport, error) {
	return e.nw.routeOnSim(e, s, t, opt)
}

func (nw *Network) routeOnSim(planner planSource, s, t sim.NodeID, opt TransportOptions) (*TransportReport, error) {
	plan := nw.route(planner, s, t, false)
	rep := &TransportReport{Outcome: plan}
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

	initialPlan := planner.label()
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
		return nw.deliverReliable(planner, s, t, opt, rep, lossAware, initialPlan)
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
	seen      map[sim.NodeID]map[int]bool
	delivered bool
	misrouted bool
	hopsIn    int // fresh (non-duplicate) payload receipts
	retrans   int
	suspects  int // next hops this node marked suspected (retry exhaustion)
	misdetect int // unforwardable payloads this (honest) holder reported
	obs       []linkObs
	// abandoned records a strand this holder gave up on after its failure
	// notices to the source went unanswered — the payload is gone, and the
	// query error must say where and why instead of "did not arrive".
	abandoned *rstrand
}

// rsourceState is the extra state of the query source.
type rsourceState struct {
	posSentAt      int
	posAttempts    int
	havePos        bool
	dead           map[sim.NodeID]bool
	replans        int
	detours        int
	suspectDetours int
	failure        string
	// Verified-delivery protocol state (engaged only under adversaries).
	verified   bool                // the destination confirmed arrival
	verSentAt  int                 // round of the last verification poll (-1: none yet)
	verFails   int                 // "not delivered" replies since the current launch
	launch     int                 // payload launch number (0 = initial)
	launchedAt int                 // round the current launch (or its last resume) started
	launchSeen map[sim.NodeID]bool // interior nodes handed a leg of the current launch
	resends    int                 // end-to-end relaunches after failed verification
	// extraAvoid is set transiently around a relaunch replan: the interior
	// nodes of the launch that just failed verification. A selective-drop
	// adversary black-holes flows deterministically, so relaunching down the
	// same corridor fails the same way — diversifying the corridor is the
	// recovery. replanFrom treats these like suspects (soft: readmitted if
	// no path clears them).
	extraAvoid map[sim.NodeID]bool
	// resumeBudget caps how many stranded corridors the current launch may
	// resume with a fresh path. Every resume opens a corridor that can
	// strand again (and, with retries, nack several times more), so under
	// adversarial misrouting an unbounded resume policy breeds corridors
	// faster than they die — a branching process that outlives any
	// deadline. Refilled per launch.
	resumeBudget int
}

// noteLaunchPath records the interior nodes of a path handed out for the
// current launch: a relaunch diversifies around them, and only a verified
// launch's nodes earn liveness probation credit.
func (src *rsourceState) noteLaunchPath(path []sim.NodeID, s, t sim.NodeID) {
	for _, v := range path {
		if v == s || v == t {
			continue
		}
		if src.launchSeen == nil {
			src.launchSeen = make(map[sim.NodeID]bool)
		}
		src.launchSeen[v] = true
	}
}

// resetLaunchPath clears the per-launch node record for a fresh launch.
func (src *rsourceState) resetLaunchPath() {
	for v := range src.launchSeen {
		delete(src.launchSeen, v)
	}
}

// suspectDetourPath plans s→t around the suspect avoid set over LDel²:
// ETX-weighted when loss-aware planning is engaged (the detour then also
// prefers low-loss links), plain node-avoiding otherwise. Returns nil when no
// path avoids every suspect — suspicion is not proof of death, so the caller
// then routes through the suspect and lets the retry protocol adjudicate.
func (nw *Network) suspectDetourPath(s, t sim.NodeID, avoid map[sim.NodeID]bool, lossAware bool) []sim.NodeID {
	if lossAware {
		if p, _, ok := nw.LDel.ShortestPathWeighted(s, t, nw.etxWeight(t, avoid)); ok {
			return p
		}
		return nil
	}
	if p, _, ok := nw.LDel.ShortestPathAvoiding(s, t, avoid); ok {
		return p
	}
	return nil
}

// deliverReliable runs the ack/retry/replan protocol for one query. With
// lossAware set, every replan consults the link-quality estimates and may
// substitute an ETX-weighted detour for the geometric plan. initialPlan
// labels the planner that produced the starting plan, for trace attribution.
func (nw *Network) deliverReliable(planner planSource, s, t sim.NodeID, opt TransportOptions, rep *TransportReport, lossAware bool, initialPlan string) (*TransportReport, error) {
	retries := opt.Retries
	if retries <= 0 {
		retries = DefaultRetries
	}
	// verif engages the end-to-end verified-delivery protocol exactly when
	// the simulator has Byzantine adversaries installed: hop-by-hop acks are
	// trustworthy against plain loss and crashes, and keeping the protocol
	// off then preserves those runs byte for byte.
	verif := nw.Sim.AdversaryActive()
	timeout := opt.TimeoutRounds
	if timeout <= 0 {
		// Budget: every hop may burn (retries+1) attempts of ackWait+1
		// rounds, plus handshake, nack/resume round trips and slack for
		// replanned (longer) paths. Verified delivery may relaunch the
		// payload end to end up to `retries` times, so its budget doubles.
		timeout = (len(rep.Path)+8)*(ackWait+1)*(retries+1) + 32
		if verif {
			timeout *= 2
		}
	}
	// launchBudget is how long the source lets one launch stay unverified
	// (and itself idle) before relaunching end to end: a clean traversal of
	// the plan plus one retransmission round trip per hop.
	launchBudget := (len(rep.Path) + 2) * (ackWait + 1)
	pr := nw.probe()
	tr := nw.tracer
	deadline := nw.Sim.Rounds() + timeout

	// Per-node duplicate-suppression maps are created lazily on first packet
	// receipt: only nodes the payload actually crosses pay for them, where
	// the old eager loop allocated n maps per query.
	st := make([]rnode, nw.G.N())
	src := &rsourceState{posSentAt: -1, verSentAt: -1, dead: make(map[sim.NodeID]bool)}

	// replanFrom computes a fresh hop path holder→t around the known-dead
	// nodes and the liveness table's current suspects: first through the
	// hybrid planner (Network or Engine plan cache), loss-detoured when the
	// mode is on; if that plan crosses a dead or suspected node, through an
	// LDel² shortest path with the avoid set removed (ETX-weighted in
	// loss-aware mode, so the escape route also prefers low-loss links).
	// Mid-query replans never probe a suspect — the payload at stake just
	// lost a retry budget — but suspicion stays soft: if no path avoids every
	// suspect, the suspects are readmitted and only the dead set is avoided.
	// The second return names the planner that produced the path, for trace
	// attribution.
	replanFrom := func(holder sim.NodeID) ([]sim.NodeID, string, bool) {
		avoid := src.dead
		suspects := nw.Live.AvoidSet(holder, t)
		if len(src.extraAvoid) > 0 {
			suspects = mergeAvoid(suspects, src.extraAvoid)
		}
		if len(suspects) > 0 {
			avoid = make(map[sim.NodeID]bool, len(src.dead)+len(suspects))
			for v := range src.dead {
				avoid[v] = true
			}
			for v := range suspects {
				avoid[v] = true
			}
		}
		out := nw.route(planner, holder, t, false)
		if out.Reached && !pathHitsAny(out.Path, avoid) {
			plan := planner.label()
			if out.PlanFallback {
				plan = planLDelFallback
			}
			if lossAware && nw.applyLossDetour(&out, t, avoid) {
				src.detours++
				plan = planLDelETX
			}
			return out.Path, plan, true
		}
		suspectsOnly := out.Reached && !pathHitsAny(out.Path, src.dead)
		if lossAware {
			if p, _, ok := nw.LDel.ShortestPathWeighted(holder, t, nw.etxWeight(t, avoid)); ok {
				if suspectsOnly {
					src.suspectDetours++
					return p, planSuspectAvoid, true
				}
				return p, planLDelETX, true
			}
		}
		if p, _, ok := nw.LDel.ShortestPathAvoiding(holder, t, avoid); ok {
			if suspectsOnly {
				src.suspectDetours++
				return p, planSuspectAvoid, true
			}
			return p, planLDelAvoid, true
		}
		if len(suspects) > 0 {
			// No path clears every suspect: readmit them and avoid only the
			// nodes whose retry budgets actually died on this query.
			if lossAware {
				if p, _, ok := nw.LDel.ShortestPathWeighted(holder, t, nw.etxWeight(t, src.dead)); ok {
					return p, planLDelETX, true
				}
			}
			if p, _, ok := nw.LDel.ShortestPathAvoiding(holder, t, src.dead); ok {
				return p, planLDelAvoid, true
			}
		}
		if verif {
			// Even the dead set cuts holder from t. Under adversaries that
			// set is itself unreliable — a frame-shifting forger fills it
			// with innocent neighbors of the corridor until the target looks
			// disconnected — so as a last resort readmit it. If a readmitted
			// node really is dead the launch fails verification and the
			// relaunch machinery owns the failure; if it was framed, the
			// query gets through.
			if lossAware {
				if p, _, ok := nw.LDel.ShortestPathWeighted(holder, t, nw.etxWeight(t, nil)); ok {
					return p, planLDelETX, true
				}
			}
			if p, _, ok := nw.LDel.ShortestPathAvoiding(holder, t, nil); ok {
				return p, planLDelAvoid, true
			}
		}
		return nil, "", false
	}

	// sendData starts (and registers) one transfer from v to `to`; plan tags
	// the planner whose path this leg executes, launch the epoch the payload
	// belongs to.
	sendData := func(ctx *sim.Context, me *rnode, round int, to sim.NodeID, path []sim.NodeID, payload int, plan string, launch int) {
		m := rdataMsg{n: me.nextN, src: s, path: path, payload: payload, plan: plan, launch: launch}
		me.nextN++
		if tr != nil {
			tr.Emit(trace.Event{Kind: trace.KindHopSend, Round: round, From: int(ctx.ID()), To: int(to), Seq: m.n, Attempt: 1, Plan: plan})
		}
		ctx.SendAdHoc(to, m)
		me.pends = append(me.pends, &rpending{to: to, msg: m, sentAt: round, attempts: 1})
	}

	// strandMisroute parks a payload an honest holder cannot forward — the
	// previous hop handed it a plan that does not start at one of the
	// holder's neighbors, i.e. the payload was misrouted — and notifies the
	// source, blaming the forwarder. The existing nack/resume machinery then
	// replans around the adversary and resumes from here. Only runs under
	// verification (a trusted network never produces unforwardable plans).
	strandMisroute := func(ctx *sim.Context, me *rnode, round int, v sim.NodeID, payload int, blame sim.NodeID, launch int) {
		me.misdetect++
		me.nextN++
		sd := &rstrand{seq: me.nextN, payload: payload, sentAt: round, attempts: 1, dead: blame, launch: launch}
		me.strands = append(me.strands, sd)
		if tr != nil {
			tr.Emit(trace.Event{Kind: trace.KindMisrouteDetected, Round: round, From: int(v), To: int(blame), Seq: sd.seq})
		}
		if nw.Live.Suspect(blame) {
			me.suspects++
			if tr != nil {
				tr.Emit(trace.Event{Kind: trace.KindSuspect, Round: round, From: int(v), To: int(blame)})
			}
		}
		ctx.SendLong(s, nackMsg{seq: sd.seq, dead: blame, launch: launch})
	}

	nw.Sim.SetAllProtos(func(v sim.NodeID) sim.Proto {
		return sim.ProtoFunc(func(ctx *sim.Context, round int, inbox []sim.Envelope) {
			me := &st[v]
			if v == s && src.posSentAt < 0 && src.failure == "" {
				src.posSentAt = round
				src.posAttempts = 1
				ctx.SendLong(t, posQuery{})
			}
			for _, env := range inbox {
				switch msg := env.Msg.(type) {
				case posQuery:
					p := ctx.Pos()
					ctx.SendLong(env.From, posReply{x: p.X, y: p.Y})
				case posReply:
					if v == s && !src.havePos {
						src.havePos = true
						if len(rep.Path) > 1 {
							src.launchedAt = round
							src.resumeBudget = len(rep.Path) + 2*retries
							src.noteLaunchPath(rep.Path, s, t)
							sendData(ctx, me, round, rep.Path[1], rep.Path[2:], opt.PayloadWords, initialPlan, src.launch)
						} else {
							// A plan of one node with s != t cannot deliver.
							me.misrouted = true
						}
					}
				case rdataMsg:
					// Always acknowledge — the previous hop may be
					// retransmitting because our earlier ack was lost.
					ctx.SendAdHoc(env.From, hopAck{n: msg.n})
					if me.seen[env.From][msg.n] {
						continue
					}
					if me.seen == nil {
						me.seen = make(map[sim.NodeID]map[int]bool)
					}
					if me.seen[env.From] == nil {
						me.seen[env.From] = make(map[int]bool)
					}
					me.seen[env.From][msg.n] = true
					me.hopsIn++
					switch {
					case v == t && (len(msg.path) == 0 || verif):
						// Arrival at the destination delivers; under
						// verification even with plan leftover (a misroute
						// can land the payload at t early).
						me.delivered = true
					case len(msg.path) == 0:
						if verif {
							// Plan exhausted at the wrong node: the payload
							// was misrouted here. Blame the forwarder and ask
							// the source for a fresh remaining path.
							strandMisroute(ctx, me, round, v, msg.payload, env.From, msg.launch)
						} else {
							me.misrouted = true
						}
					case verif && !nw.G.HasEdge(v, msg.path[0]):
						// The planned next hop is not our neighbor: a
						// misrouted payload whose plan we cannot legally
						// follow (strict mode would abort the run). Same
						// recovery as plan exhaustion.
						strandMisroute(ctx, me, round, v, msg.payload, env.From, msg.launch)
					default:
						sendData(ctx, me, round, msg.path[0], msg.path[1:], msg.payload, msg.plan, msg.launch)
					}
				case hopAck:
					for i, p := range me.pends {
						if p.to == env.From && p.msg.n == msg.n {
							if tr != nil {
								tr.Emit(trace.Event{Kind: trace.KindHopAck, Round: round, From: int(v), To: int(p.to), Seq: p.msg.n, Attempt: p.attempts, Plan: p.msg.plan})
							}
							me.obs = append(me.obs, linkObs{to: p.to, attempts: p.attempts, acked: true})
							me.pends = append(me.pends[:i], me.pends[i+1:]...)
							break
						}
					}
				case verifyQuery:
					// End-to-end verification poll: answer truthfully —
					// unless this node is a colluding adversary covering for
					// a fellow adversary's discarded payload, in which case
					// the confirmation is forged.
					d := me.delivered
					if !d && verif && nw.Sim.AdversaryLaundered(env.From, v) {
						d = true
					}
					ctx.SendLong(env.From, verifyReply{n: msg.n, delivered: d})
				case verifyReply:
					if v != s || msg.n != src.launch || src.verified || src.failure != "" {
						continue
					}
					if msg.delivered {
						src.verified = true
					} else {
						src.verFails++
					}
				case nackMsg:
					if v != s || !src.havePos || src.failure != "" {
						continue
					}
					// Past the deadline no fresh corridor may be opened. The
					// timers below already stop then, but under adversaries
					// nacks are born in inbox handlers (a misrouted payload
					// strands wherever it lands), so without this gate the
					// nack -> resume -> wander -> nack cycle would outlive the
					// deadline indefinitely instead of quiescing.
					if verif && round >= deadline {
						continue
					}
					if verif && msg.launch != src.launch {
						// The strand belongs to an epoch a relaunch already
						// replaced: its corridor was abandoned, so release the
						// payload instead of resuming it. Resuming would graft
						// the stale corridor — including whoever silently
						// swallowed its payload — into the current launch's
						// verification record, crediting nodes the verified
						// payload never touched.
						ctx.SendLong(env.From, resumeMsg{seq: msg.seq})
						continue
					}
					if verif && src.resumeBudget <= 0 {
						// This launch already spent its corridor budget:
						// release the strand instead of opening yet another
						// corridor, and force the end-to-end relaunch timer —
						// the relaunch replans from the source with a refilled
						// budget, diversified around this launch's corridors.
						ctx.SendLong(env.From, resumeMsg{seq: msg.seq})
						src.verFails++
						src.launchedAt = round - launchBudget
						continue
					}
					if verif {
						src.resumeBudget--
					}
					// Under verification a nack's blame is unreliable — a
					// forger whose own discarded forward never got acked
					// nacks blaming its innocent next hop, including the
					// query endpoints themselves. Letting s or t into the
					// dead set would poison every later replan (no path
					// reaches an avoided target), so endpoint blame is
					// ignored there; without adversaries blame is
					// trustworthy and an unresponsive target rightly ends
					// the query.
					if !src.dead[msg.dead] && (!verif || (msg.dead != s && msg.dead != t)) {
						src.dead[msg.dead] = true
						src.replans++
					}
					full, plan, ok := replanFrom(env.From)
					if !ok || len(full) < 2 {
						if verif && src.launch < retries {
							// The stranded corridor is unrecoverable from the
							// holder. Under verification this is not fatal:
							// release the strand and force the end-to-end
							// relaunch timer (which replans from the source
							// around the abandoned corridor). A frame-shifting
							// forger can exhaust a holder's whole neighborhood
							// with bogus nacks without ever cutting s from t.
							ctx.SendLong(env.From, resumeMsg{seq: msg.seq})
							src.verFails++
							src.launchedAt = round - launchBudget
							continue
						}
						src.failure = fmt.Sprintf("no path from %d to %d around dead nodes %v", env.From, t, deadList(src.dead))
						continue
					}
					if tr != nil {
						tr.Emit(trace.Event{Kind: trace.KindReplan, Round: round, From: int(env.From), To: int(t), Plan: plan, Value: len(src.dead)})
					}
					// Record the resumed leg's nodes for verification credit.
					// Deliberately NOT a relaunch-clock reset: a forger that
					// keeps nacking (blaming its own neighbors) must not be
					// able to postpone the end-to-end relaunch forever.
					src.noteLaunchPath(full, s, t)
					ctx.SendLong(env.From, resumeMsg{seq: msg.seq, path: full[1:], plan: plan})
				case resumeMsg:
					for i, sd := range me.strands {
						if sd.seq != msg.seq {
							continue
						}
						me.strands = append(me.strands[:i], me.strands[i+1:]...)
						if len(msg.path) == 0 {
							// An empty resume under verification releases the
							// strand: the source abandoned this corridor for a
							// fresh launch. Without verification it means the
							// plan cannot continue from here.
							if !verif {
								me.misrouted = true
							}
						} else {
							sendData(ctx, me, round, msg.path[0], msg.path[1:], sd.payload, msg.plan, sd.launch)
						}
						break
					}
				}
			}
			if round >= deadline {
				return // deadline passed: all timers stop, the run quiesces
			}
			// Position handshake timer (source only).
			if v == s && !src.havePos && src.failure == "" {
				if round >= src.posSentAt+ackWait {
					if src.posAttempts > retries {
						src.failure = fmt.Sprintf("position query to %d unanswered after %d attempts", t, src.posAttempts)
					} else {
						src.posAttempts++
						src.posSentAt = round
						me.retrans++
						ctx.SendLong(t, posQuery{})
					}
				}
				if src.failure == "" {
					ctx.KeepAlive()
				}
			}
			// Verified delivery: the source polls the destination end to end
			// until it confirms arrival, and relaunches the payload from
			// scratch when a launch stays unverified past its budget with
			// nothing left in flight at the source — the case a forged hop
			// acknowledgement produces (every hop "succeeded", the payload
			// is gone, and no nack will ever come).
			if verif && v == s && src.havePos && !src.verified && !me.misrouted && src.failure == "" {
				if src.verSentAt < 0 || round >= src.verSentAt+verifyWait {
					src.verSentAt = round
					ctx.SendLong(t, verifyQuery{n: src.launch})
				}
				if src.verFails > 0 && round >= src.launchedAt+launchBudget &&
					len(me.pends) == 0 && len(me.strands) == 0 {
					if tr != nil {
						tr.Emit(trace.Event{Kind: trace.KindVerifyFail, Round: round, From: int(s), To: int(t), Attempt: src.launch + 1})
					}
					if src.launch >= retries {
						src.failure = fmt.Sprintf("delivery to %d unverified after %d launches", t, src.launch+1)
					} else {
						// Diversify the relaunch: prefer a corridor disjoint
						// from the one that just failed (replanFrom readmits
						// these if nothing else clears them). A selective-drop
						// adversary black-holes flows deterministically, so
						// relaunching down the same corridor fails the same
						// way.
						src.extraAvoid = src.launchSeen
						full, plan, okRelaunch := replanFrom(s)
						src.extraAvoid = nil
						if okRelaunch && len(full) >= 2 {
							src.launch++
							src.verFails = 0
							src.verSentAt = round
							src.launchedAt = round
							src.resumeBudget = len(full) + 2*retries
							src.resends++
							src.resetLaunchPath()
							src.noteLaunchPath(full, s, t)
							if tr != nil {
								tr.Emit(trace.Event{Kind: trace.KindE2EResend, Round: round, From: int(s), To: int(t), Plan: plan, Value: src.resends})
							}
							sendData(ctx, me, round, full[1], full[2:], opt.PayloadWords, plan, src.launch)
						} else {
							src.failure = fmt.Sprintf("no relaunch path from %d to %d around dead nodes %v", s, t, deadList(src.dead))
						}
					}
				}
				if src.failure == "" {
					ctx.KeepAlive()
				}
			}
			// Hop retransmission timers.
			for i := 0; i < len(me.pends); {
				p := me.pends[i]
				if round < p.sentAt+ackWait {
					i++
					continue
				}
				if p.attempts <= retries {
					p.attempts++
					p.sentAt = round
					me.retrans++
					if tr != nil {
						tr.Emit(trace.Event{Kind: trace.KindHopRetry, Round: round, From: int(v), To: int(p.to), Seq: p.msg.n, Attempt: p.attempts, Plan: p.msg.plan})
					}
					ctx.SendAdHoc(p.to, p.msg)
					i++
					continue
				}
				// Budget exhausted: the hop is dead. The source replans
				// locally; any other holder strands the payload and raises
				// a nack. Either way the next hop is marked suspected in the
				// shared liveness table, so every later plan — this query's
				// replans and other queries' initial plans — routes around it
				// without burning another budget.
				me.pends = append(me.pends[:i], me.pends[i+1:]...)
				me.obs = append(me.obs, linkObs{to: p.to, attempts: p.attempts, acked: false})
				if nw.Live.Suspect(p.to) {
					me.suspects++
					if tr != nil {
						tr.Emit(trace.Event{Kind: trace.KindSuspect, Round: round, From: int(v), To: int(p.to), Attempt: p.attempts, Plan: p.msg.plan})
					}
				}
				if v == s {
					if !src.dead[p.to] {
						src.dead[p.to] = true
						src.replans++
					}
					full, plan, ok := replanFrom(s)
					if !ok || len(full) < 2 {
						if verif && src.launch < retries {
							// Mirror the nack handler's escape: under
							// verification an unplannable local replan is not
							// fatal — force the end-to-end relaunch timer,
							// which replans from scratch around this launch.
							src.verFails++
							src.launchedAt = round - launchBudget
							continue
						}
						src.failure = fmt.Sprintf("no path from %d to %d around dead nodes %v", s, t, deadList(src.dead))
						continue
					}
					if tr != nil {
						tr.Emit(trace.Event{Kind: trace.KindReplan, Round: round, From: int(s), To: int(t), Plan: plan, Value: len(src.dead)})
					}
					src.launchedAt = round
					src.noteLaunchPath(full, s, t)
					sendData(ctx, me, round, full[1], full[2:], p.msg.payload, plan, src.launch)
				} else {
					// The first failure notice is a first send, not a
					// retransmission — only the timer-driven nack resends
					// below count, matching sendData's semantics.
					me.nextN++
					sd := &rstrand{seq: me.nextN, payload: p.msg.payload, sentAt: round, attempts: 1, dead: p.to, launch: p.msg.launch}
					me.strands = append(me.strands, sd)
					if tr != nil {
						tr.Emit(trace.Event{Kind: trace.KindHopNack, Round: round, From: int(v), To: int(p.to), Seq: sd.seq, Attempt: 1, Plan: p.msg.plan})
					}
					ctx.SendLong(s, nackMsg{seq: sd.seq, dead: p.to, launch: sd.launch})
				}
			}
			// Nack retransmission timers (waiting for a resume).
			for i := 0; i < len(me.strands); {
				sd := me.strands[i]
				if round < sd.sentAt+ackWait {
					i++
					continue
				}
				if sd.attempts > retries {
					// The source never answered: the payload is abandoned
					// here. Record the strand so the query error names the
					// holder and the dead hop instead of reporting a
					// generic non-arrival.
					me.abandoned = sd
					me.strands = append(me.strands[:i], me.strands[i+1:]...)
					continue
				}
				sd.attempts++
				sd.sentAt = round
				me.retrans++
				if tr != nil {
					tr.Emit(trace.Event{Kind: trace.KindHopNack, Round: round, From: int(v), To: int(sd.dead), Seq: sd.seq, Attempt: sd.attempts})
				}
				ctx.SendLong(s, nackMsg{seq: sd.seq, dead: sd.dead, launch: sd.launch})
				i++
			}
			if len(me.pends) > 0 || len(me.strands) > 0 {
				ctx.KeepAlive()
			}
		})
	})
	fillDiagnostics := func() {
		pr.fill(nw, rep)
		rep.DeliveredSim = st[t].delivered
		rep.Replans = src.replans
		rep.Detours += src.detours
		rep.SuspectDetours += src.suspectDetours
		rep.Verified = src.verified
		rep.E2EResends = src.resends
		for v := range st {
			rep.Retransmits += st[v].retrans
			rep.DataHops += st[v].hopsIn
			rep.Suspected += st[v].suspects
			rep.MisrouteDetected += st[v].misdetect
		}
	}
	if _, err := nw.Sim.Run(); err != nil {
		// Run aborted (MaxRounds exhaustion or a strict-mode violation): the
		// rounds, messages and retransmissions spent up to the abort are real
		// cost — fill the report before returning so callers that tolerate
		// partial failures (experiment sweeps) still account the work.
		fillDiagnostics()
		return rep, err
	}
	fillDiagnostics()
	// Feed the ack outcomes back into the link-quality estimates and the
	// liveness table's probation counters, in node order so the fold is
	// deterministic. Clean first-attempt successes are no-ops inside Observe
	// and ObserveAck ignores unsuspected nodes, so lossless runs leave both
	// untouched. Under adversaries two corrections apply: a telemetry-lying
	// node's own observations are inverted (it frames whatever it touched as
	// dead), and probation credit requires end-to-end verification of the
	// path the node was actually on — a forged hop ack looks clean one hop
	// upstream, so it must not readmit a suspect, not even when the query
	// later delivered via a relaunch around the forger.
	creditTo := func(to sim.NodeID) bool {
		if !verif {
			return true
		}
		return src.verified && (src.launchSeen[to] || to == t)
	}
	for v := range st {
		liar := verif && nw.Sim.AdversaryBehaviorOf(sim.NodeID(v))&sim.AdvLieTelemetry != 0
		for _, o := range st[v].obs {
			attempts, acked := o.attempts, o.acked
			if liar {
				attempts, acked = retries+1, false
			}
			if nw.Link != nil {
				nw.Link.Observe(sim.NodeID(v), o.to, attempts, acked)
			}
			nw.Live.ObserveAck(o.to, attempts, acked && creditTo(o.to))
		}
	}
	if rep.DeliveredSim {
		return rep, nil
	}
	for v := range st {
		if st[v].misrouted {
			return rep, fmt.Errorf("core: misrouted plan: remaining path exhausted at node %d before reaching %d", v, t)
		}
	}
	if src.failure != "" {
		return rep, fmt.Errorf("core: delivery %d->%d failed: %s", s, t, src.failure)
	}
	for v := range st {
		if sd := st[v].abandoned; sd != nil {
			return rep, fmt.Errorf("core: stranded payload at node %d: next hop %d dead and %d failure notices to source %d went unanswered", v, sd.dead, sd.attempts, s)
		}
	}
	return rep, fmt.Errorf("core: payload did not arrive at %d within %d rounds (retries %d)", t, timeout, retries)
}

// mergeAvoid unions two avoid sets, reusing either when the other is empty.
func mergeAvoid(a, b map[sim.NodeID]bool) map[sim.NodeID]bool {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make(map[sim.NodeID]bool, len(a)+len(b))
	for v := range a {
		out[v] = true
	}
	for v := range b {
		out[v] = true
	}
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
	for i := 1; i < len(out); i++ { // insertion sort, tiny sets
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
