// TraceReport: turning the raw event stream of one traced query into the
// quantities the paper argues about — the traversed path length against the
// best the overlay abstraction could have done (the competitive ratio of
// Theorem 1), with per-hop retransmission and plan-attribution detail that
// the aggregate TransportReport cannot express.

package core

import (
	"fmt"
	"strings"

	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
)

// HopTrace is one payload leg of a traced query, aggregated from the hop
// events of the reliable (or lossless) transport: who sent to whom, under
// which plan, how many transmission attempts the leg cost and whether it was
// ultimately acknowledged (lossless legs carry no acks and report Acked as
// false with Attempts 1).
type HopTrace struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	Seq      int    `json:"seq,omitempty"`
	Round    int    `json:"round"`
	Attempts int    `json:"attempts"`
	Acked    bool   `json:"acked"`
	Plan     string `json:"plan,omitempty"`
}

// TraceReport is the per-query observability summary assembled from trace
// events plus the transport's own report. Lengths are Euclidean; the
// competitive ratio compares the physically traversed payload path against
// the LDel² shortest path between the endpoints (the overlay the routing
// abstraction competes with).
type TraceReport struct {
	S         int  `json:"s"`
	T         int  `json:"t"`
	Delivered bool `json:"delivered"`
	Rounds    int  `json:"rounds"`

	Hops        []HopTrace `json:"hops"`
	Retransmits int        `json:"retransmits"`     // transport total (handshakes and nacks included)
	HopRetrans  int        `json:"hop_retransmits"` // payload-hop resends only (sum of attempts-1)
	Replans     int        `json:"replans"`
	Nacks       int        `json:"nacks"`

	GeoDistance      float64  `json:"geo_distance"`
	TraversedLength  float64  `json:"traversed_length"`
	ShortestLength   float64  `json:"shortest_length,omitempty"`
	CompetitiveRatio float64  `json:"competitive_ratio,omitempty"`
	PlanPath         []string `json:"plan_path,omitempty"` // distinct plan labels in first-use order

	// Byzantine-tier diagnostics (all zero unless the simulator has
	// adversaries installed).
	Verified         bool `json:"verified,omitempty"`
	E2EResends       int  `json:"e2e_resends,omitempty"`
	VerifyFails      int  `json:"verify_fails,omitempty"`
	MisrouteDetected int  `json:"misroute_detected,omitempty"`

	// Err is the delivery error of this query, set by TraceBatch so a failed
	// query in a traced batch keeps both its partial trace and its reason.
	Err string `json:"err,omitempty"`
}

// TraceQuery routes one query on the simulator with the installed tracer and
// assembles a TraceReport from the events it emitted. The transport report
// and error are returned alongside; on a failed delivery the trace report is
// still assembled from whatever happened before the failure. The network
// must have a tracer installed (SetTracer).
func (nw *Network) TraceQuery(s, t sim.NodeID, opt TransportOptions) (*TraceReport, *TransportReport, error) {
	tr := nw.tracer
	if tr == nil {
		return nil, nil, fmt.Errorf("core: TraceQuery needs a tracer installed (Network.SetTracer)")
	}
	start := tr.Len()
	rep, err := nw.RouteOnSimOpt(s, t, opt)
	report := nw.buildTraceReport(s, t, rep, tr.Since(start))
	return report, rep, err
}

// TraceBatch routes every query of the batch on the simulator, in order, and
// assembles one TraceReport per query — the batch analogue of TraceQuery,
// covering each query instead of one sample. Deliveries are sequential (the
// simulator serializes runs); a query whose delivery fails still yields its
// partial trace with Err recording the reason, and the batch continues. The
// network must have a tracer installed (SetTracer).
func (nw *Network) TraceBatch(queries []Query, opt TransportOptions) ([]*TraceReport, error) {
	if nw.tracer == nil {
		return nil, fmt.Errorf("core: TraceBatch needs a tracer installed (Network.SetTracer)")
	}
	out := make([]*TraceReport, len(queries))
	for i, q := range queries {
		report, _, err := nw.TraceQuery(q.S, q.T, opt)
		if err != nil {
			report.Err = err.Error()
		}
		out[i] = report
	}
	return out, nil
}

// buildTraceReport folds one query's event slice into the per-hop summary.
func (nw *Network) buildTraceReport(s, t sim.NodeID, rep *TransportReport, events []trace.Event) *TraceReport {
	r := &TraceReport{
		S: int(s), T: int(t),
		Delivered:        rep.DeliveredSim,
		Rounds:           rep.Rounds,
		Retransmits:      rep.Retransmits,
		Replans:          rep.Replans,
		GeoDistance:      nw.G.Point(s).Dist(nw.G.Point(t)),
		Verified:         rep.Verified,
		E2EResends:       rep.E2EResends,
		MisrouteDetected: rep.MisrouteDetected,
	}

	// Aggregate hop events by (from, to, seq) in first-appearance order.
	type hopKey struct{ from, to, seq int }
	idx := make(map[hopKey]int)
	anyAcks := false
	planSeen := make(map[string]bool)
	notePlan := func(p string) {
		if p != "" && !planSeen[p] {
			planSeen[p] = true
			r.PlanPath = append(r.PlanPath, p)
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindHopSend:
			k := hopKey{ev.From, ev.To, ev.Seq}
			if _, ok := idx[k]; !ok {
				idx[k] = len(r.Hops)
				r.Hops = append(r.Hops, HopTrace{From: ev.From, To: ev.To, Seq: ev.Seq, Round: ev.Round, Attempts: 1, Plan: ev.Plan})
			}
			notePlan(ev.Plan)
		case trace.KindHopRetry:
			if i, ok := idx[hopKey{ev.From, ev.To, ev.Seq}]; ok && ev.Attempt > r.Hops[i].Attempts {
				r.Hops[i].Attempts = ev.Attempt
			}
		case trace.KindHopAck:
			if i, ok := idx[hopKey{ev.From, ev.To, ev.Seq}]; ok {
				r.Hops[i].Acked = true
				if ev.Attempt > r.Hops[i].Attempts {
					r.Hops[i].Attempts = ev.Attempt
				}
			}
			anyAcks = true
		case trace.KindHopNack:
			if ev.Attempt == 1 {
				r.Nacks++
			}
		case trace.KindReplan:
			notePlan(ev.Plan)
		case trace.KindVerifyFail:
			r.VerifyFails++
		}
	}

	// Traversed length: acknowledged legs under the reliable protocol; every
	// launched leg under the ack-free lossless transport. Failed (dead) hops
	// never moved the payload, so they carry cost in attempts, not length.
	for _, h := range r.Hops {
		r.HopRetrans += h.Attempts - 1
		if anyAcks && !h.Acked {
			continue
		}
		r.TraversedLength += nw.G.Point(sim.NodeID(h.From)).Dist(nw.G.Point(sim.NodeID(h.To)))
	}

	// Competitive baseline: the LDel² shortest path — the planar overlay the
	// routing abstraction is proven competitive against.
	if _, opt, ok := nw.LDel.ShortestPath(s, t); ok && opt > 0 {
		r.ShortestLength = opt
		r.CompetitiveRatio = r.TraversedLength / opt
	}
	return r
}

// String renders the report for humans: summary line, then one row per hop.
func (r *TraceReport) String() string {
	var b strings.Builder
	status := "FAILED"
	if r.Delivered {
		status = "delivered"
	}
	fmt.Fprintf(&b, "query %d->%d: %s in %d rounds, %d hops (%d payload resends, %d retransmits total, %d replans, %d nacks)\n",
		r.S, r.T, status, r.Rounds, len(r.Hops), r.HopRetrans, r.Retransmits, r.Replans, r.Nacks)
	fmt.Fprintf(&b, "  length traversed %.3f, LDel shortest %.3f, straight-line %.3f",
		r.TraversedLength, r.ShortestLength, r.GeoDistance)
	if r.CompetitiveRatio > 0 {
		fmt.Fprintf(&b, ", competitive ratio %.3f", r.CompetitiveRatio)
	}
	b.WriteString("\n")
	if len(r.PlanPath) > 0 {
		fmt.Fprintf(&b, "  plans: %s\n", strings.Join(r.PlanPath, " -> "))
	}
	for _, h := range r.Hops {
		mark := " "
		if !h.Acked {
			mark = "?"
		}
		fmt.Fprintf(&b, "  %s r%-5d %5d -> %-5d attempts=%d plan=%s\n", mark, h.Round, h.From, h.To, h.Attempts, h.Plan)
	}
	return b.String()
}
