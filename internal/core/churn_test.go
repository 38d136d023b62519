package core

import (
	"testing"

	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
)

// interiorPathNode returns a node of path that is neither endpoint, preferring
// one deep into the path so a crash strikes before the payload passes it.
func interiorPathNode(path []sim.NodeID) (sim.NodeID, bool) {
	if len(path) < 3 {
		return 0, false
	}
	return path[len(path)/2], true
}

// TestChurnRepairCrashRecover pins the repair lifecycle: a crash patches the
// live topology (the dead node loses every LDel edge and disappears from
// plans), a recovery of the last dead node restores the pristine topology
// exactly, and the generation advances once per membership change.
func TestChurnRepairCrashRecover(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, d := transportPair(t, nw)
	before := nw.Route(s, d)
	if !before.Reached {
		t.Fatal("baseline query must route")
	}
	victim, ok := interiorPathNode(before.Path)
	if !ok {
		t.Fatal("baseline path too short to pick a victim")
	}
	baseLDel, baseHoles := nw.LDel, nw.Holes

	if err := nw.Sim.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if nw.TopoGeneration() != 1 || nw.DeadCount() != 1 {
		t.Fatalf("after crash: generation %d, dead %d", nw.TopoGeneration(), nw.DeadCount())
	}
	if nw.LDel == baseLDel {
		t.Fatal("repair must swap in a patched LDel")
	}
	if nw.LDel.Degree(victim) != 0 {
		t.Errorf("dead node keeps %d LDel edges", nw.LDel.Degree(victim))
	}
	st := nw.RepairReport()
	if st.Repairs != 1 || st.Restores != 0 {
		t.Errorf("repair stats after one crash: %+v", st)
	}
	during := nw.Route(s, d)
	if during.Reached {
		for _, v := range during.Path {
			if v == victim {
				t.Fatalf("post-crash plan routes through dead node %d: %v", victim, during.Path)
			}
		}
	}

	if err := nw.Sim.Recover(victim); err != nil {
		t.Fatal(err)
	}
	if nw.TopoGeneration() != 2 || nw.DeadCount() != 0 {
		t.Fatalf("after recovery: generation %d, dead %d", nw.TopoGeneration(), nw.DeadCount())
	}
	if nw.LDel != baseLDel || nw.Holes != baseHoles {
		t.Fatal("recovery of the last dead node must restore the pristine topology")
	}
	if nw.RepairReport().Restores != 1 {
		t.Errorf("restore not counted: %+v", nw.RepairReport())
	}
	after := nw.Route(s, d)
	if len(after.Path) != len(before.Path) {
		t.Fatalf("healed plan differs from baseline: %v vs %v", after.Path, before.Path)
	}
	for i := range after.Path {
		if after.Path[i] != before.Path[i] {
			t.Fatalf("healed plan differs from baseline: %v vs %v", after.Path, before.Path)
		}
	}
}

// TestEngineCacheVersionedByTopoGeneration pins the acceptance criterion: an
// answer cached under one topology generation is never served after a
// membership change — the key's generation advances, so the stale entry stops
// being addressable and the engine replans against the patched topology.
func TestEngineCacheVersionedByTopoGeneration(t *testing.T) {
	nw := prepScenario(t, 0.55, 7, 7, 1.5)
	eng := NewEngine(nw, EngineConfig{Workers: 1})
	var q Query
	found := false
	for s := 0; s < nw.G.N() && !found; s++ {
		for d := 0; d < nw.G.N(); d++ {
			out := nw.Route(sim.NodeID(s), sim.NodeID(d))
			if len(out.Waypoints) > 0 && len(out.Path) >= 3 {
				q = Query{S: sim.NodeID(s), T: sim.NodeID(d)}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no waypoint-consulting pair in this scenario")
	}
	first := eng.Route(q.S, q.T)
	eng.Route(q.S, q.T)
	if eng.Stats().Hits == 0 {
		t.Fatalf("repeat query must hit the cache: %+v", eng.Stats())
	}
	victim, ok := interiorPathNode(first.Path)
	if !ok {
		t.Fatal("plan too short to crash an interior node")
	}
	if err := nw.Sim.Crash(victim); err != nil {
		t.Fatal(err)
	}
	missesBefore := eng.Stats().Misses
	out := eng.Route(q.S, q.T)
	if eng.Stats().Misses <= missesBefore {
		t.Errorf("post-churn query must miss the cache: %+v", eng.Stats())
	}
	if out.Reached {
		for _, v := range out.Path {
			if v == victim {
				t.Fatalf("cached answer served across a membership change: plan %v routes through dead node %d", out.Path, victim)
			}
		}
	}
	if err := nw.Sim.Recover(victim); err != nil {
		t.Fatal(err)
	}
}

// TestChurnDisabledByteIdentity pins the other acceptance criterion: with no
// churn the repair layer is pure bookkeeping — and a network that crashed and
// fully healed answers exactly like one that never churned.
func TestChurnDisabledByteIdentity(t *testing.T) {
	pristine := prepScenario(t, 0.55, 7, 7, 1.5)
	healed := prepScenario(t, 0.55, 7, 7, 1.5)
	if pristine.TopoGeneration() != 0 || pristine.Live.SuspectCount() != 0 {
		t.Fatal("fresh network must have generation 0 and an empty liveness table")
	}
	// Churn and heal the second network.
	victim := sim.NodeID(-1)
	s, d := transportPair(t, healed)
	for v := 0; v < healed.G.N(); v++ {
		if sim.NodeID(v) != s && sim.NodeID(v) != d {
			victim = sim.NodeID(v)
			break
		}
	}
	if err := healed.Sim.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := healed.Sim.Recover(victim); err != nil {
		t.Fatal(err)
	}
	r0, err0 := pristine.RouteOnSim(s, d, 25)
	r1, err1 := healed.RouteOnSim(s, d, 25)
	if (err0 == nil) != (err1 == nil) {
		t.Fatalf("error mismatch: %v vs %v", err0, err1)
	}
	if !transportReportsEqual(r0, r1) {
		t.Fatalf("healed network diverged from pristine:\n%+v\n%+v", r0, r1)
	}
}

// TestSuspectFailoverAroundCrashedNode is the tentpole's transport half: a
// statically crashed node (no membership notification, no repair — the
// planner keeps planning through it) is discovered by retry exhaustion,
// marked suspected from ack telemetry alone, and the delivery survives by
// replanning around the suspect. A later query whose plan would cross the
// suspect diverts immediately, without burning a retry budget first.
func TestSuspectFailoverAroundCrashedNode(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, d := transportPair(t, nw)
	plan := nw.Route(s, d)
	victim, ok := interiorPathNode(plan.Path)
	if !ok {
		t.Fatal("plan too short")
	}
	if err := nw.Sim.SetFaults(sim.FaultConfig{Crashed: []sim.NodeID{victim}}); err != nil {
		t.Fatal(err)
	}
	if nw.TopoGeneration() != 0 {
		t.Fatal("static Crashed must not trigger repair (compatibility contract)")
	}
	rep, err := nw.RouteOnSim(s, d, 25)
	if err != nil || !rep.DeliveredSim {
		t.Fatalf("delivery around the crashed node failed: %v (%+v)", err, rep)
	}
	if rep.Suspected == 0 {
		t.Errorf("retry exhaustion must mark the dead hop suspected: %+v", rep)
	}
	if !nw.Live.Suspected(victim) {
		t.Fatalf("node %d not in the liveness table", victim)
	}

	// Second pass over the same pair: if this query is not elected to probe,
	// the initial plan must divert around the suspect with zero retransmits
	// spent rediscovering it.
	if avoid := nw.Live.AvoidFor(s, d); avoid[victim] {
		rep2, err := nw.RouteOnSim(s, d, 25)
		if err != nil || !rep2.DeliveredSim {
			t.Fatalf("post-suspicion delivery failed: %v", err)
		}
		// Either failover layer may win: the suspect-avoid divert, or the
		// loss-aware ETX detour that learned the dead link from the first
		// pass. What matters is that the plan cleared the suspect up front.
		if rep2.SuspectDetours == 0 && !(rep2.Detours > 0 && !pathHitsAny(rep2.Path, map[sim.NodeID]bool{victim: true})) {
			t.Errorf("initial plan through a suspect must divert: %+v", rep2)
		}
		if rep2.Retransmits >= rep.Retransmits && rep.Retransmits > 0 {
			t.Errorf("suspect-avoid plan burned as many retransmits as discovery (%d >= %d)",
				rep2.Retransmits, rep.Retransmits)
		}
	}
}

// TestLivenessProbation unit-tests the readmission rule: probationAcks
// consecutive clean first-attempt acks readmit a suspect; any retry or nack
// restarts the probation; the nil table is inert.
func TestLivenessProbation(t *testing.T) {
	lv := NewLiveness(10)
	if !lv.Suspect(3) || lv.Suspect(3) {
		t.Fatal("first Suspect must report new, second must not")
	}
	if !lv.Suspected(3) || lv.SuspectCount() != 1 {
		t.Fatal("node 3 must be suspected")
	}
	gen := lv.Generation()
	// Two clean acks, then a retry: probation restarts.
	lv.ObserveAck(3, 1, true)
	lv.ObserveAck(3, 1, true)
	lv.ObserveAck(3, 2, true)
	for i := 0; i < probationAcks-1; i++ {
		lv.ObserveAck(3, 1, true)
	}
	if !lv.Suspected(3) {
		t.Fatal("probation must restart after a retried transfer")
	}
	lv.ObserveAck(3, 1, true)
	if lv.Suspected(3) || lv.SuspectCount() != 0 {
		t.Fatal("completed probation must readmit the node")
	}
	if lv.Generation() == gen {
		t.Error("readmission must advance the generation")
	}
	// Acks about unsuspected nodes are no-ops.
	lv.ObserveAck(4, 5, false)
	if lv.Suspected(4) || lv.SuspectCount() != 0 {
		t.Error("ObserveAck must never create suspicion")
	}
	// Endpoints are exempt from avoid sets; some queries probe.
	lv.Suspect(6)
	if lv.AvoidSet(6, 1)[6] || lv.AvoidSet(1, 6)[6] {
		t.Error("endpoints must be exempt from the avoid set")
	}
	probed, avoided := false, false
	for s := sim.NodeID(0); s < 10; s++ {
		for d := sim.NodeID(0); d < 10; d++ {
			if s == 6 || d == 6 || s == d {
				continue
			}
			if lv.AvoidFor(s, d)[6] {
				avoided = true
			} else {
				probed = true
			}
		}
	}
	if !probed || !avoided {
		t.Errorf("probe election must split queries (probed=%v avoided=%v)", probed, avoided)
	}
	// Nil receiver: every method is inert.
	var nilLv *Liveness
	if nilLv.Suspect(1) || nilLv.Suspected(1) || nilLv.SuspectCount() != 0 ||
		nilLv.AvoidSet(0, 1) != nil || nilLv.AvoidFor(0, 1) != nil || nilLv.Generation() != 0 {
		t.Error("nil liveness table must be inert")
	}
	nilLv.ObserveAck(1, 1, true)
}

// TestEngineBatchMembershipDiscipline pins the supported concurrency
// discipline (run under -race in tier 1): engine batches route with full
// worker parallelism — workers read the repaired topology and stamp the
// atomic generation into cache keys — while membership changes happen
// strictly between batches, the same rule sim.Counters imposes. After the
// network heals, a batch must reproduce the pre-churn outcomes exactly.
func TestEngineBatchMembershipDiscipline(t *testing.T) {
	nw := prepScenario(t, 0.55, 7, 7, 1.5)
	eng := NewEngine(nw, EngineConfig{Workers: 8})
	var queries []Query
	for s := 0; s < nw.G.N(); s += 3 {
		for d := 1; d < nw.G.N(); d += 7 {
			queries = append(queries, Query{S: sim.NodeID(s), T: sim.NodeID(d)})
		}
	}
	before := eng.RouteBatch(queries)
	victim := sim.NodeID(nw.G.N() / 2)
	if err := nw.Sim.Crash(victim); err != nil {
		t.Fatal(err)
	}
	mid := eng.RouteBatch(queries)
	for i, out := range mid {
		if queries[i].S == victim || queries[i].T == victim || !out.Reached {
			continue
		}
		for _, v := range out.Path {
			if v == victim {
				t.Fatalf("batch query %d->%d routed through dead node %d", queries[i].S, queries[i].T, victim)
			}
		}
	}
	if err := nw.Sim.Recover(victim); err != nil {
		t.Fatal(err)
	}
	after := eng.RouteBatch(queries)
	for i := range after {
		if len(after[i].Path) != len(before[i].Path) {
			t.Fatalf("query %d: healed batch diverged from pristine: %v vs %v", i, after[i].Path, before[i].Path)
		}
		for j := range after[i].Path {
			if after[i].Path[j] != before[i].Path[j] {
				t.Fatalf("query %d: healed batch diverged from pristine: %v vs %v", i, after[i].Path, before[i].Path)
			}
		}
	}
}

// TestChurnScheduleMidDelivery is the tentpole end to end: a churn schedule
// kills an interior plan node while the payload is in flight. The membership
// listener repairs the topology mid-run, the stranded holder's nack triggers
// a replan over the repaired graph, and the payload still arrives — with
// crash, suspect and repair events all in the trace.
func TestChurnScheduleMidDelivery(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, d := transportPair(t, nw)
	plan := nw.Route(s, d)
	if len(plan.Path) < 5 {
		t.Skip("plan too short to crash mid-flight")
	}
	victim := plan.Path[len(plan.Path)-2]
	tr := trace.New(0)
	nw.SetTracer(tr)
	err := nw.Sim.SetFaults(sim.FaultConfig{Churn: sim.ChurnSchedule{Events: []sim.ChurnEvent{
		{Round: 2, Node: victim, Up: false},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := nw.RouteOnSim(s, d, 25)
	if err != nil || !rep.DeliveredSim {
		t.Fatalf("delivery across mid-run churn failed: %v (%+v)", err, rep)
	}
	if rep.Replans == 0 {
		t.Errorf("losing a plan node mid-flight must replan: %+v", rep)
	}
	if nw.TopoGeneration() == 0 || nw.RepairReport().Repairs == 0 {
		t.Error("the crash must have triggered a topology repair")
	}
	counts := tr.CountByKind()
	if counts["crash"] == 0 || counts["repair"] == 0 {
		t.Errorf("trace missing churn events: %v", counts)
	}
	if counts["suspect"] == 0 {
		t.Errorf("retry exhaustion toward the dead node must emit a suspect event: %v", counts)
	}
}
