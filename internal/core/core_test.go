package core

import (
	"math/rand"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

// prepScenario preprocesses a jittered grid with one circular hole.
func prepScenario(t testing.TB, spacing, w, h, holeR float64) *Network {
	t.Helper()
	var obstacles [][]geom.Point
	if holeR > 0 {
		obstacles = [][]geom.Point{workload.RegularPolygon(geom.Pt(w/2, h/2), holeR, 24, 0.1)}
	}
	sc, err := workload.JitteredGrid(spacing, w, h, 1, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Preprocess(sc.Build(), Config{Strict: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestPreprocessHoleFree(t *testing.T) {
	nw := prepScenario(t, 0.55, 6, 6, 0)
	if nw.Report.Rounds.Total <= 0 {
		t.Fatal("rounds must be measured")
	}
	if nw.Tree == nil || nw.Tree.Validate(nw.G.N()) != nil {
		t.Fatal("overlay tree invalid")
	}
}

func TestPreprocessWithHole(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	if nw.Report.NumHoles == 0 {
		t.Fatal("the carved hole must be detected")
	}
	// The big hole's ring protocol must agree with the geometric hull.
	found := false
	for hi, h := range nw.Holes.Holes {
		if h.Outer || len(h.Ring) < 8 {
			continue
		}
		if !geom.PointInPolygon(geom.Pt(4, 4), h.Polygon) {
			continue
		}
		found = true
		members := nw.Rings[hi]
		if len(members) == 0 {
			t.Fatal("no ring results for the main hole")
		}
		for v, r := range members {
			if r == nil {
				t.Fatalf("node %d missing ring result", v)
			}
			if !r.IsHole() {
				t.Fatalf("angle sum %v misclassifies the hole", r.AngleSum)
			}
			if r.Size != len(dedupeCycle(h.Ring)) {
				t.Fatalf("ring size %d vs %d", r.Size, len(dedupeCycle(h.Ring)))
			}
			if len(r.Hull) != len(h.HullNodes) {
				t.Fatalf("protocol hull %d vs geometric hull %d", len(r.Hull), len(h.HullNodes))
			}
		}
	}
	if !found {
		t.Fatal("main hole not found")
	}
}

func TestOuterBoundaryClassified(t *testing.T) {
	nw := prepScenario(t, 0.55, 6, 6, 0)
	outerID := len(nw.Holes.Holes)
	members, ok := nw.Rings[outerID]
	if !ok {
		t.Skip("outer boundary ring skipped (degenerate)")
	}
	for v, r := range members {
		if r.IsHole() {
			t.Fatalf("node %d classifies the outer boundary as a hole (sum %v)", v, r.AngleSum)
		}
	}
}

func TestRouteCase1AroundHole(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, _ := nw.nodeAt(nearestPt(nw, geom.Pt(0.2, 4)))
	d, _ := nw.nodeAt(nearestPt(nw, geom.Pt(7.8, 4)))
	out := nw.Route(s, d)
	if !out.Reached {
		t.Fatalf("route failed: %+v", out)
	}
	if out.Case != 1 {
		t.Fatalf("case = %d, want 1", out.Case)
	}
	// Path must be connected in LDel².
	for i := 1; i < len(out.Path); i++ {
		if !nw.LDel.HasEdge(out.Path[i-1], out.Path[i]) {
			t.Fatalf("path edge %d-%d missing", out.Path[i-1], out.Path[i])
		}
	}
	// Competitive: stretch vs UDG shortest path below the paper's constant.
	_, opt, ok := nw.G.ShortestPath(s, d)
	if !ok {
		t.Fatal("connected")
	}
	stretch := out.Length(nw.LDel) / opt
	if stretch > 35.37 {
		t.Fatalf("stretch %.2f exceeds the paper bound", stretch)
	}
	t.Logf("case-1 stretch: %.3f (plan fallback=%v)", stretch, out.PlanFallback)
}

func TestRouteVisibilityVariant(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	s, _ := nw.nodeAt(nearestPt(nw, geom.Pt(0.2, 4)))
	d, _ := nw.nodeAt(nearestPt(nw, geom.Pt(7.8, 4)))
	out := nw.RouteVisibility(s, d)
	if !out.Reached {
		t.Fatalf("visibility route failed: %+v", out)
	}
	_, opt, _ := nw.G.ShortestPath(s, d)
	stretch := out.Length(nw.LDel) / opt
	if stretch > 17.7 {
		t.Fatalf("visibility stretch %.2f exceeds the paper bound 17.7", stretch)
	}
}

// TestRouteManyRandomPairs routes random pairs and holds every answer to
// the paper: it is delivered, by the geometric plan (a plan fallback is a
// failure), within 35.37 times the shortest path.
func TestRouteManyRandomPairs(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	rng := rand.New(rand.NewSource(9))
	worst := 0.0
	for trial := 0; trial < 120; trial++ {
		s := sim.NodeID(rng.Intn(nw.G.N()))
		d := sim.NodeID(rng.Intn(nw.G.N()))
		out := nw.Route(s, d)
		if !out.Reached {
			t.Fatalf("route %d->%d failed (case %d)", s, d, out.Case)
		}
		if out.PlanFallback {
			t.Errorf("route %d->%d fell back to the LDel² shortest path (case %d)", s, d, out.Case)
		}
		if s == d {
			continue // a zero-length answer has no stretch
		}
		_, opt, ok := nw.G.ShortestPath(s, d)
		if !ok || opt == 0 {
			t.Fatalf("route %d->%d delivered, but the UDG has no path of positive length", s, d)
		}
		if st := out.Length(nw.LDel) / opt; st > worst {
			worst = st
		}
	}
	if worst > 35.37 {
		t.Errorf("worst stretch %.2f exceeds the paper's constant", worst)
	}
	t.Logf("worst stretch %.3f over 120 pairs", worst)
}

func TestRouteBayCases(t *testing.T) {
	// A star-shaped (non-convex) hole has real bay areas.
	star := workload.StarPolygon(geom.Pt(5, 5), 2.6, 1.1, 5, 0)
	sc, err := workload.JitteredGrid(0.5, 10, 10, 1, [][]geom.Point{star})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Preprocess(sc.Build(), Config{Strict: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Bays) == 0 {
		t.Skip("no bays formed; star hole too coarse for this spacing")
	}
	// Find nodes inside bays.
	var bayNodes []sim.NodeID
	for v := 0; v < nw.G.N(); v++ {
		if nw.bayIndexOf(nw.G.Point(sim.NodeID(v))) >= 0 {
			bayNodes = append(bayNodes, sim.NodeID(v))
		}
	}
	if len(bayNodes) == 0 {
		t.Skip("no nodes inside bays")
	}
	outside, _ := nw.nodeAt(nearestPt(nw, geom.Pt(0.3, 0.3)))
	sawCase := map[int]bool{}
	for _, v := range bayNodes {
		out := nw.Route(v, outside)
		if !out.Reached {
			t.Fatalf("bay exit route failed from %d (case %d)", v, out.Case)
		}
		sawCase[out.Case] = true
	}
	// Same-bay pairs.
	for i := 0; i < len(bayNodes); i++ {
		for j := i + 1; j < len(bayNodes); j++ {
			a, b := bayNodes[i], bayNodes[j]
			if nw.bayIndexOf(nw.G.Point(a)) != nw.bayIndexOf(nw.G.Point(b)) {
				continue
			}
			out := nw.Route(a, b)
			if !out.Reached {
				t.Fatalf("same-bay route %d->%d failed", a, b)
			}
			sawCase[out.Case] = true
		}
	}
	t.Logf("bay nodes: %d, cases seen: %v", len(bayNodes), sawCase)
	if !sawCase[2] {
		t.Error("expected at least one case-2 route")
	}
}

func TestStorageClasses(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	r := nw.Report
	if r.StorageHull <= r.StorageOther {
		t.Errorf("hull nodes (%d words) should store more than plain nodes (%d)", r.StorageHull, r.StorageOther)
	}
	if r.NumHullNodes == 0 || r.NumBoundaryNodes == 0 {
		t.Errorf("classes empty: hull=%d boundary=%d", r.NumHullNodes, r.NumBoundaryNodes)
	}
	if r.StorageOther > 40 {
		t.Errorf("plain nodes should need O(1) storage, got %d words", r.StorageOther)
	}
}

func TestDominatingSetsCoverBays(t *testing.T) {
	nw := prepScenario(t, 0.5, 9, 9, 2.0)
	for _, b := range nw.Bays {
		if len(b.Interior) == 0 {
			continue
		}
		if b.DS == nil {
			t.Fatalf("bay %v has no dominating set", b)
		}
		for i, v := range b.Interior {
			prev := sim.NodeID(-1)
			next := sim.NodeID(-1)
			if i > 0 {
				prev = b.Interior[i-1]
			}
			if i+1 < len(b.Interior) {
				next = b.Interior[i+1]
			}
			if !b.DS[v] && !(prev >= 0 && b.DS[prev]) && !(next >= 0 && b.DS[next]) {
				t.Fatalf("bay node %d not dominated", v)
			}
		}
	}
}

func TestPreprocessRejectsDisconnected(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)}
	g := udg.Build(pts, 1)
	if _, err := Preprocess(g, Config{}); err == nil {
		t.Fatal("expected error for disconnected UDG")
	}
}

func nearestPt(nw *Network, p geom.Point) geom.Point {
	best := nw.G.Point(0)
	for v := 1; v < nw.G.N(); v++ {
		if nw.G.Point(sim.NodeID(v)).Dist2(p) < best.Dist2(p) {
			best = nw.G.Point(sim.NodeID(v))
		}
	}
	return best
}

func TestRecomputeDynamicScenario(t *testing.T) {
	sc, err := workload.Uniform(21, 250, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Preprocess(sc.Build(), Config{Strict: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	initialRounds := nw.Report.Rounds.Total
	m := workload.NewMobility(sc, 5, 0.08)
	var recomputeRounds []int
	cur := nw
	for epoch := 0; epoch < 3; epoch++ {
		sc = m.Step()
		next, err := cur.Recompute(sc.Build(), Config{Strict: true, Seed: 1})
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if next.Report.Rounds.Tree != 0 {
			t.Fatal("recompute must not rebuild the tree")
		}
		recomputeRounds = append(recomputeRounds, next.Report.Rounds.Total)
		// Routing still works after movement.
		out := next.Route(0, sim.NodeID(next.G.N()-1))
		if !out.Reached {
			t.Fatalf("epoch %d: route failed", epoch)
		}
		cur = next
	}
	for _, rr := range recomputeRounds {
		if rr >= initialRounds {
			t.Errorf("recompute rounds %d not below initial setup %d", rr, initialRounds)
		}
	}
	t.Logf("initial %d rounds; recompute %v", initialRounds, recomputeRounds)
}
