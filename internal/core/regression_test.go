// Regression tests for routing-correctness bugs found while building the
// concurrent batch engine: degenerate geometric paths, self-query
// accounting, and delivery flags on the simulator.
package core

import (
	"math/rand"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
)

// TestPointsToNodesShortInputs: ShortestPath can return fewer than 2 points
// for coincident endpoints or degenerate geometry; pointsToNodes used to
// slice pts[1:len(pts)-1] and panic.
func TestPointsToNodesShortInputs(t *testing.T) {
	nw := prepScenario(t, 0.55, 7, 7, 1.5)
	a, b := sim.NodeID(0), sim.NodeID(nw.G.N()-1)
	for _, pts := range [][]geom.Point{nil, {}, {nw.G.Point(a)}} {
		wps, ok := nw.pointsToNodes(a, b, pts)
		if !ok {
			t.Fatalf("pts=%v: expected trivial plan, got ok=false", pts)
		}
		if len(wps) != 2 || wps[0] != a || wps[1] != b {
			t.Fatalf("pts=%v: trivial plan = %v, want [%d %d]", pts, wps, a, b)
		}
	}
	// Coincident endpoints collapse to a single waypoint.
	wps, ok := nw.pointsToNodes(a, a, nil)
	if !ok || len(wps) != 1 || wps[0] != a {
		t.Fatalf("self plan = %v ok=%v, want [%d]", wps, ok, a)
	}
}

// TestSpliceTailShortRest: an empty or single-node continuation must not
// panic and must contribute no hops.
func TestSpliceTailShortRest(t *testing.T) {
	head := []sim.NodeID{1, 2, 3}
	if got := spliceTail(head, nil); len(got) != 3 {
		t.Fatalf("spliceTail(head, nil) = %v", got)
	}
	if got := spliceTail(head, []sim.NodeID{3}); len(got) != 3 {
		t.Fatalf("spliceTail(head, [3]) = %v", got)
	}
	if got := spliceTail(head, []sim.NodeID{3, 4}); len(got) != 4 || got[3] != 4 {
		t.Fatalf("spliceTail(head, [3 4]) = %v", got)
	}
	// The splice must copy: appending must not alias the head slice.
	got := spliceTail(head[:2], head[2:])
	got[0] = 99
	if head[0] == 99 {
		t.Fatal("spliceTail aliased its input")
	}
}

// TestRouteSelfQueryCostsNothing: a self-query needs no position lookup, so
// no Route variant may charge long-range messages for it.
func TestRouteSelfQueryCostsNothing(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	v := sim.NodeID(nw.G.N() / 2)
	outcomes := map[string]Outcome{
		"Route":             nw.Route(v, v),
		"RouteVisibility":   nw.RouteVisibility(v, v),
		"RouteWithOverlay":  nw.RouteWithOverlay(v, v, nw.Overlay),
		"RouteWithObstacle": nw.RouteWithObstacles(v, v, nw.VisDomain()),
	}
	for name, out := range outcomes {
		if !out.Reached {
			t.Errorf("%s(%d,%d): not reached", name, v, v)
		}
		if out.LongRange != 0 {
			t.Errorf("%s(%d,%d): LongRange = %d, want 0 (no message is ever sent)", name, v, v, out.LongRange)
		}
		if len(out.Path) != 1 || out.Path[0] != v {
			t.Errorf("%s(%d,%d): path = %v, want [%d]", name, v, v, out.Path, v)
		}
	}
	// Non-self queries still pay the position round trip.
	if out := nw.Route(v, v+1); out.LongRange < 2 {
		t.Errorf("Route(%d,%d): LongRange = %d, want >= 2", v, v+1, out.LongRange)
	}
}

// TestRouteOnSimSelfQuery asserts the transport counters for the self-query
// case: delivery is local, so no rounds and no messages of either class.
func TestRouteOnSimSelfQuery(t *testing.T) {
	nw := prepScenario(t, 0.55, 7, 7, 1.5)
	v := sim.NodeID(3)
	rep, err := nw.RouteOnSim(v, v, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeliveredSim {
		t.Fatal("self-query must count as delivered")
	}
	if rep.LongRange != 0 || rep.LongMsgs != 0 || rep.AdHocMsgs != 0 || rep.Rounds != 0 {
		t.Errorf("self-query must be free: LongRange=%d LongMsgs=%d AdHocMsgs=%d Rounds=%d",
			rep.LongRange, rep.LongMsgs, rep.AdHocMsgs, rep.Rounds)
	}
}

// TestDeliveredSimImpliesTargetReached: DeliveredSim may only be set by the
// target's own flag — the source-side launch bookkeeping must never count
// as physical delivery for s != t.
func TestDeliveredSimImpliesTargetReached(t *testing.T) {
	nw := prepScenario(t, 0.55, 7, 7, 1.5)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
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
			t.Fatalf("%d->%d: not delivered", s, d)
		}
		if last := rep.Path[len(rep.Path)-1]; last != d {
			t.Fatalf("%d->%d: DeliveredSim set but plan ends at %d", s, d, last)
		}
	}
}
