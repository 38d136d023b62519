package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/workload"
)

func TestRouteOnSimDelivers(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, _ := nw.nodeAt(nearestPt(nw, geom.Pt(0.2, 4)))
	d, _ := nw.nodeAt(nearestPt(nw, geom.Pt(7.8, 4)))
	rep, err := nw.RouteOnSim(s, d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeliveredSim {
		t.Fatal("payload must arrive in the simulation")
	}
	// Every plan hop is one ad hoc message; the query costs 2 long-range
	// messages; delivery takes hops + query round-trips + quiescence rounds.
	if rep.AdHocMsgs != rep.Hops() {
		t.Errorf("ad hoc messages %d != hops %d", rep.AdHocMsgs, rep.Hops())
	}
	if rep.LongMsgs != 2 {
		t.Errorf("long-range messages = %d, want 2 (position query/response)", rep.LongMsgs)
	}
	if rep.Rounds < rep.Hops()+2 {
		t.Errorf("rounds %d below hops+handshake %d", rep.Rounds, rep.Hops()+2)
	}
	// The payload words never ride long-range links.
	if rep.LongWords > 8 {
		t.Errorf("long-range words %d should be a small constant", rep.LongWords)
	}
	if rep.AdHocWords <= 100 {
		t.Errorf("payload words must ride ad hoc links (got %d)", rep.AdHocWords)
	}
}

func TestRouteOnSimManyPairs(t *testing.T) {
	nw := prepScenario(t, 0.55, 7, 7, 1.5)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		s := sim.NodeID(rng.Intn(nw.G.N()))
		d := sim.NodeID(rng.Intn(nw.G.N()))
		if s == d {
			continue
		}
		rep, err := nw.RouteOnSim(s, d, 10)
		if err != nil {
			t.Fatalf("%d->%d: %v", s, d, err)
		}
		if !rep.DeliveredSim {
			t.Fatalf("%d->%d not delivered", s, d)
		}
	}
}

// --- reliable transport under fault injection ---

// transportPair returns a long east-west query pair across the hole.
func transportPair(t *testing.T, nw *Network) (sim.NodeID, sim.NodeID) {
	t.Helper()
	s, _ := nw.nodeAt(nearestPt(nw, geom.Pt(0.2, 4)))
	d, _ := nw.nodeAt(nearestPt(nw, geom.Pt(7.8, 4)))
	return s, d
}

// TestReliableOnLosslessSimMatchesPlan forces the ack/retry protocol on a
// fault-free simulator: every hop acks on first try, so there are no
// retransmissions or replans and the payload walks exactly the planned hops.
func TestReliableOnLosslessSimMatchesPlan(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, d := transportPair(t, nw)
	rep, err := nw.RouteOnSimOpt(s, d, TransportOptions{PayloadWords: 64, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeliveredSim {
		t.Fatal("not delivered")
	}
	if rep.Retransmits != 0 || rep.Replans != 0 {
		t.Errorf("lossless reliable run must not retry (retransmits %d, replans %d)", rep.Retransmits, rep.Replans)
	}
	if rep.DataHops != rep.Hops() {
		t.Errorf("data hops %d != plan hops %d", rep.DataHops, rep.Hops())
	}
	// Each data hop costs one payload message and one ack.
	if rep.AdHocMsgs != 2*rep.Hops() {
		t.Errorf("ad hoc messages %d, want hops+acks %d", rep.AdHocMsgs, 2*rep.Hops())
	}
}

// TestZeroLossFaultsKeepTransportByteIdentical pins the acceptance criterion:
// installing a fault config with zero probabilities and no crashed nodes
// leaves every routing/transport observable byte-identical to the lossless
// baseline.
func TestZeroLossFaultsKeepTransportByteIdentical(t *testing.T) {
	base := prepScenario(t, 0.55, 8, 8, 1.8)
	faulty := prepScenario(t, 0.55, 8, 8, 1.8)
	if err := faulty.Sim.SetFaults(sim.FaultConfig{AdHocLoss: 0, LongLoss: 0, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		s := sim.NodeID(rng.Intn(base.G.N()))
		d := sim.NodeID(rng.Intn(base.G.N()))
		r0, err0 := base.RouteOnSim(s, d, 25)
		r1, err1 := faulty.RouteOnSim(s, d, 25)
		if (err0 == nil) != (err1 == nil) {
			t.Fatalf("%d->%d: error mismatch: %v vs %v", s, d, err0, err1)
		}
		if !transportReportsEqual(r0, r1) {
			t.Fatalf("%d->%d: reports diverged:\n%+v\n%+v", s, d, r0, r1)
		}
	}
}

func transportReportsEqual(a, b *TransportReport) bool {
	if a.Rounds != b.Rounds || a.AdHocMsgs != b.AdHocMsgs || a.LongMsgs != b.LongMsgs ||
		a.AdHocWords != b.AdHocWords || a.LongWords != b.LongWords ||
		a.DeliveredSim != b.DeliveredSim || a.Retransmits != b.Retransmits ||
		a.Replans != b.Replans || a.DataHops != b.DataHops || a.Detours != b.Detours ||
		a.Suspected != b.Suspected || a.SuspectDetours != b.SuspectDetours ||
		a.LossDetour != b.LossDetour || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// TestRouteOnSimSurvivesLoss drives queries through 5% message loss on both
// link classes: retransmissions must deliver every payload, and the whole run
// must reproduce bit-exactly from the fault seed.
func TestRouteOnSimSurvivesLoss(t *testing.T) {
	run := func() (delivered, retrans int, reps []*TransportReport) {
		nw := prepScenario(t, 0.55, 8, 8, 1.8)
		if err := nw.Sim.SetFaults(sim.FaultConfig{AdHocLoss: 0.05, LongLoss: 0.05, Seed: 4}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 15; trial++ {
			s := sim.NodeID(rng.Intn(nw.G.N()))
			d := sim.NodeID(rng.Intn(nw.G.N()))
			rep, err := nw.RouteOnSim(s, d, 40)
			if err != nil {
				t.Fatalf("%d->%d under loss: %v", s, d, err)
			}
			if rep.DeliveredSim {
				delivered++
			}
			retrans += rep.Retransmits
			reps = append(reps, rep)
		}
		return
	}
	del1, ret1, reps1 := run()
	if del1 != 15 {
		t.Fatalf("delivered %d/15 under 5%% loss", del1)
	}
	del2, ret2, reps2 := run()
	if del1 != del2 || ret1 != ret2 {
		t.Fatalf("fault seed must reproduce the run: %d/%d vs %d/%d", del1, ret1, del2, ret2)
	}
	for i := range reps1 {
		if !transportReportsEqual(reps1[i], reps2[i]) {
			t.Fatalf("query %d reports diverged:\n%+v\n%+v", i, reps1[i], reps2[i])
		}
	}
	if ret1 == 0 {
		t.Log("no retransmissions under 5% loss across 15 queries — unexpected but not fatal")
	}
}

// TestRouteOnSimReplansAroundCrash crashes a node in the middle of the plan:
// the hop before it must exhaust its retries, nack the source, and the source
// must replan around the dead node so the payload still arrives.
func TestRouteOnSimReplansAroundCrash(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, d := transportPair(t, nw)
	plan := nw.Route(s, d)
	if !plan.Reached || len(plan.Path) < 5 {
		t.Fatalf("need a multi-hop plan, got %v", plan.Path)
	}
	dead := plan.Path[len(plan.Path)/2]
	if err := nw.Sim.SetFaults(sim.FaultConfig{Crashed: []sim.NodeID{dead}, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	rep, err := nw.RouteOnSim(s, d, 64)
	if err != nil {
		t.Fatalf("delivery around crashed node %d: %v", dead, err)
	}
	if !rep.DeliveredSim {
		t.Fatal("payload must arrive despite the crash")
	}
	if rep.Replans == 0 {
		t.Error("expected at least one replan around the crashed hop")
	}
	if rep.Retransmits == 0 {
		t.Error("expected retransmissions toward the crashed hop")
	}
}

// TestRouteOnSimCrashedEndpointsFailFast pins the diagnostic for impossible
// queries: a crashed source or target is reported immediately.
func TestRouteOnSimCrashedEndpointsFailFast(t *testing.T) {
	nw := prepScenario(t, 0.55, 7, 7, 1.5)
	s, d := sim.NodeID(0), sim.NodeID(nw.G.N()-1)
	if err := nw.Sim.SetFaults(sim.FaultConfig{Crashed: []sim.NodeID{d}}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RouteOnSim(s, d, 8); err == nil {
		t.Fatal("crashed target must fail the query")
	}
}

// TestMisroutedPlanNamesTheNode exercises the satellite bugfix directly: a
// plan that exhausts before the target must produce an error naming the node
// where the payload stranded — in both transport modes.
func TestMisroutedPlanNamesTheNode(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, d := transportPair(t, nw)
	plan := nw.Route(s, d)
	if !plan.Reached || len(plan.Path) < 4 {
		t.Fatalf("need a multi-hop plan, got %v", plan.Path)
	}
	truncated := plan.Path[:len(plan.Path)-2]
	strandAt := truncated[len(truncated)-1]
	nw.Sim.Teach(s, d)
	for _, reliable := range []bool{false, true} {
		rep := &TransportReport{Outcome: plan}
		rep.Outcome.Path = truncated
		var err error
		if reliable {
			_, err = nw.deliverReliable(nw, s, d, TransportOptions{PayloadWords: 8}, rep, false, "network")
		} else {
			_, err = nw.deliverLossless(s, d, 8, rep, "network")
		}
		if err == nil {
			t.Fatalf("reliable=%v: truncated plan must fail", reliable)
		}
		want := fmt.Sprintf("exhausted at node %d", strandAt)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("reliable=%v: error %q does not name the stranded node (%s)", reliable, err, want)
		}
		if rep.DeliveredSim {
			t.Errorf("reliable=%v: must not report delivery", reliable)
		}
	}
}

// TestStrandedPayloadNamesHolder forces the silent-drop path the satellite
// bugfix repairs: the holder's next hop is crashed and every failure notice
// to the source is lost (the holder sits in a region with total long-range
// loss), so after exhausting its nack budget the holder abandons the payload
// — and the query error must name the holder and the dead hop instead of
// reporting a generic non-arrival.
func TestStrandedPayloadNamesHolder(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, d := transportPair(t, nw)
	plan := nw.Route(s, d)
	if !plan.Reached || len(plan.Path) < 6 {
		t.Fatalf("need a long plan, got %v", plan.Path)
	}
	holder, dead := plan.Path[3], plan.Path[4]
	if err := nw.Sim.SetFaults(sim.FaultConfig{
		Seed:    9,
		Crashed: []sim.NodeID{dead},
		LossRegions: []sim.LossRegion{
			{Center: nw.G.Point(holder), Radius: 1e-9, LongLoss: 1},
		},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := nw.RouteOnSimOpt(s, d, TransportOptions{PayloadWords: 16, LossAware: LossAwareOff})
	if err == nil {
		t.Fatal("abandoned payload must fail the query")
	}
	if rep.DeliveredSim {
		t.Fatal("must not report delivery")
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("stranded payload at node %d", holder)) ||
		!strings.Contains(msg, fmt.Sprintf("next hop %d dead", dead)) {
		t.Errorf("error %q must name holder %d and dead hop %d", msg, holder, dead)
	}
}

// TestRetransmitCountPinned pins the Retransmits semantics the satellite
// bugfix aligns: toward a crashed hop the sender resends exactly its retry
// budget — the initial data send and the first failure notice are first
// sends, not retransmissions — and nothing else retries in a crash-only run.
func TestRetransmitCountPinned(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, d := transportPair(t, nw)
	plan := nw.Route(s, d)
	if !plan.Reached || len(plan.Path) < 6 {
		t.Fatalf("need a long plan, got %v", plan.Path)
	}
	dead := plan.Path[3] // holder Path[2] is not the source, so the nack path runs
	if err := nw.Sim.SetFaults(sim.FaultConfig{Crashed: []sim.NodeID{dead}, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	const retries = 2
	rep, err := nw.RouteOnSimOpt(s, d, TransportOptions{PayloadWords: 16, Retries: retries})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeliveredSim {
		t.Fatal("payload must arrive around the crash")
	}
	if rep.Replans != 1 {
		t.Errorf("replans = %d, want 1", rep.Replans)
	}
	if rep.Retransmits != retries {
		t.Errorf("retransmits = %d, want exactly %d (only timer-driven resends toward the dead hop)", rep.Retransmits, retries)
	}
}

// TestLossAwareDetoursAroundLossyRegion drives repeated queries through a
// lossy region: the estimator learns the region's links from ack outcomes
// alone and loss-aware planning replaces later plans with ETX detours.
func TestLossAwareDetoursAroundLossyRegion(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, d := transportPair(t, nw)
	plan := nw.Route(s, d)
	if !plan.Reached || len(plan.Path) < 5 {
		t.Fatalf("need a multi-hop plan, got %v", plan.Path)
	}
	mid := plan.Path[len(plan.Path)/2]
	if err := nw.Sim.SetFaults(sim.FaultConfig{Seed: 6, LossRegions: []sim.LossRegion{
		{Center: nw.G.Point(mid), Radius: 1.2, AdHocLoss: 0.35},
	}}); err != nil {
		t.Fatal(err)
	}
	// Warmup: deliveries through the region teach the estimator (failed
	// queries feed it too, so they are tolerated).
	for i := 0; i < 3; i++ {
		if _, err := nw.RouteOnSimOpt(s, d, TransportOptions{PayloadWords: 16}); err != nil {
			t.Logf("warmup %d failed (telemetry still recorded): %v", i, err)
		}
	}
	if nw.Link.Generation() == 0 {
		t.Fatal("queries through a 35% lossy region must feed the estimator")
	}
	rep, err := nw.RouteOnSimOpt(s, d, TransportOptions{PayloadWords: 16})
	if err != nil {
		t.Fatalf("loss-aware delivery: %v", err)
	}
	if !rep.DeliveredSim {
		t.Fatal("loss-aware query must deliver")
	}
	if rep.Detours == 0 {
		t.Errorf("expected the learned region loss to trigger an ETX detour: %+v", rep)
	}
}

// TestLossAwareLosslessByteIdentical pins the other half of the acceptance
// criterion: on a fault-free simulator, forcing Reliable with LossAwareOn is
// byte-identical to LossAwareOff, and the estimator never leaves generation 0.
func TestLossAwareLosslessByteIdentical(t *testing.T) {
	a := prepScenario(t, 0.55, 8, 8, 1.8)
	b := prepScenario(t, 0.55, 8, 8, 1.8)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		s := sim.NodeID(rng.Intn(a.G.N()))
		d := sim.NodeID(rng.Intn(a.G.N()))
		r0, err0 := a.RouteOnSimOpt(s, d, TransportOptions{PayloadWords: 16, Reliable: true, LossAware: LossAwareOff})
		r1, err1 := b.RouteOnSimOpt(s, d, TransportOptions{PayloadWords: 16, Reliable: true, LossAware: LossAwareOn})
		if (err0 == nil) != (err1 == nil) {
			t.Fatalf("%d->%d: error mismatch %v vs %v", s, d, err0, err1)
		}
		if !transportReportsEqual(r0, r1) {
			t.Fatalf("%d->%d: loss-aware mode perturbed a lossless run:\n%+v\n%+v", s, d, r0, r1)
		}
	}
	if g := b.Link.Generation(); g != 0 {
		t.Errorf("lossless runs must leave the estimator at generation 0 (got %d)", g)
	}
}

// TestEngineRouteOnSimUnderLoss routes on-sim through the batch engine's plan
// cache (the replanning path the issue calls for) and checks outcomes match
// the Network planner exactly.
func TestEngineRouteOnSimUnderLoss(t *testing.T) {
	nwA := prepScenario(t, 0.55, 8, 8, 1.8)
	nwB := prepScenario(t, 0.55, 8, 8, 1.8)
	for _, nw := range []*Network{nwA, nwB} {
		if err := nw.Sim.SetFaults(sim.FaultConfig{AdHocLoss: 0.04, LongLoss: 0.04, Seed: 12}); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(nwB, EngineConfig{Workers: 2})
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		s := sim.NodeID(rng.Intn(nwA.G.N()))
		d := sim.NodeID(rng.Intn(nwA.G.N()))
		ra, errA := nwA.RouteOnSim(s, d, 32)
		rb, errB := eng.RouteOnSim(s, d, 32)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%d->%d: error mismatch %v vs %v", s, d, errA, errB)
		}
		if !transportReportsEqual(ra, rb) {
			t.Fatalf("%d->%d: engine transport diverged:\n%+v\n%+v", s, d, ra, rb)
		}
	}
	if st := eng.Stats(); st.Misses == 0 {
		t.Error("engine planner must have been consulted")
	}
}

// TestReliableTransportParallelSim runs the fault paths on a parallel-stepped
// simulator (the race-detector coverage the issue requires) and checks the
// reports match sequential stepping bit-for-bit.
func TestReliableTransportParallelSim(t *testing.T) {
	build := func(parallel bool) *Network {
		t.Helper()
		obstacles := [][]geom.Point{workload.RegularPolygon(geom.Pt(4, 4), 1.8, 24, 0.1)}
		sc, err := workload.JitteredGrid(0.55, 8, 8, 1, obstacles)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := Preprocess(sc.Build(), Config{Strict: true, Seed: 7, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.Sim.SetFaults(sim.FaultConfig{AdHocLoss: 0.06, LongLoss: 0.06, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		return nw
	}
	seq, par := build(false), build(true)
	if par.G.N() < 64 {
		t.Fatalf("scenario too small (%d nodes) to engage parallel stepping", par.G.N())
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		s := sim.NodeID(rng.Intn(seq.G.N()))
		d := sim.NodeID(rng.Intn(seq.G.N()))
		rs, errS := seq.RouteOnSim(s, d, 48)
		rp, errP := par.RouteOnSim(s, d, 48)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("%d->%d: error mismatch %v vs %v", s, d, errS, errP)
		}
		if !transportReportsEqual(rs, rp) {
			t.Fatalf("%d->%d: parallel transport diverged:\n%+v\n%+v", s, d, rs, rp)
		}
	}
}

// TestReliableTransportAllocsSublinear is the satellite-2 regression gate: a
// warm reliable delivery must not allocate per-node scratch beyond the one
// unavoidable proto installation pass. The old code eagerly allocated a
// duplicate-filter map for every node (n extra allocations), two n-sized
// counter snapshots for the message-cost probe, and an n-sized misrouted
// scratch slice — pushing the count past 2n. The lazy/sparse replacements
// keep a warm run under 1.6n with a wide margin (~1.2n measured).
func TestReliableTransportAllocsSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not short")
	}
	nw := prepScenario(t, 0.55, 24, 24, 1.8)
	n := float64(nw.G.N())
	s, d := transportPair(t, nw)
	nw.Sim.Teach(s, d)
	opt := TransportOptions{PayloadWords: 16, Reliable: true}
	if _, err := nw.RouteOnSimOpt(s, d, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		rep, err := nw.RouteOnSimOpt(s, d, opt)
		if err != nil || !rep.DeliveredSim {
			t.Fatal(err)
		}
	})
	if allocs > 1.6*n {
		t.Fatalf("warm reliable delivery allocates %.0f times for %d nodes (%.2f/node), want < 1.6/node",
			allocs, nw.G.N(), allocs/n)
	}
}

// Benchmarks comparing sequential and parallel simulator stepping on the
// full preprocessing pipeline.
func benchPreprocess(b *testing.B, parallel bool) {
	obstacles := workload.RandomConvexObstacles(2, 4, 18, 18, 1.5, 2.2, 1.3)
	sc, err := workload.WithObstacles(2, 1500, 18, 18, 1, obstacles)
	if err != nil {
		b.Fatal(err)
	}
	g := sc.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Preprocess(g, Config{Strict: true, Seed: 2, Parallel: parallel}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocessSequential(b *testing.B) { benchPreprocess(b, false) }
func BenchmarkPreprocessParallel(b *testing.B)   { benchPreprocess(b, true) }
