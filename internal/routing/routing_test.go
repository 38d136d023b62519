package routing

import (
	"math"
	"math/rand"
	"testing"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// buildScenario creates a jittered grid UDG with an optional circular hole,
// its LDel² graph, router, and hole set.
func buildScenario(t testing.TB, spacing, w, h, holeR float64) (*udg.Graph, *Router, *delaunay.HoleSet) {
	t.Helper()
	center := geom.Pt(w/2, h/2)
	var pts []geom.Point
	for x := 0.0; x <= w+1e-9; x += spacing {
		for y := 0.0; y <= h+1e-9; y += spacing {
			p := geom.Pt(x+1e-4*math.Sin(13*x+7*y), y+1e-4*math.Cos(11*x-5*y))
			if holeR > 0 && p.Dist(center) < holeR {
				continue
			}
			pts = append(pts, p)
		}
	}
	g := udg.Build(pts, 1)
	if !g.Connected() {
		t.Fatal("scenario UDG disconnected")
	}
	ld := delaunay.LDel2Fast(g)
	r := New(ld)
	hs := delaunay.DetectHoles(ld, g.Radius())
	return g, r, hs
}

func nodeNear(g *udg.Graph, p geom.Point) NodeID {
	best := NodeID(0)
	bestD := math.Inf(1)
	for v := 0; v < g.N(); v++ {
		if d := g.Point(NodeID(v)).Dist(p); d < bestD {
			best, bestD = NodeID(v), d
		}
	}
	return best
}

func TestGreedyOnDenseGrid(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 6, 6, 0)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := NodeID(rng.Intn(g.N()))
		d := NodeID(rng.Intn(g.N()))
		res := r.Greedy(s, d)
		if !res.Reached {
			t.Fatalf("greedy failed on hole-free grid: %d->%d (stuck=%v)", s, d, res.Stuck)
		}
	}
}

func TestGreedyStuckAtHole(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 8, 8, 2.0)
	// Route straight across the hole.
	s := nodeNear(g, geom.Pt(0.2, 4))
	d := nodeNear(g, geom.Pt(7.8, 4))
	res := r.Greedy(s, d)
	if res.Reached {
		t.Fatal("greedy should get stuck routing across a large hole")
	}
	if !res.Stuck {
		t.Fatal("expected explicit Stuck flag")
	}
}

func TestCompassOnDenseGrid(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 6, 6, 0)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		s := NodeID(rng.Intn(g.N()))
		d := NodeID(rng.Intn(g.N()))
		res := r.Compass(s, d)
		if !res.Reached {
			t.Fatalf("compass failed on hole-free grid: %d->%d", s, d)
		}
	}
}

func TestCompassTerminatesAtHole(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 8, 8, 2.0)
	s := nodeNear(g, geom.Pt(0.2, 4))
	d := nodeNear(g, geom.Pt(7.8, 4))
	res := r.Compass(s, d)
	// Compass may loop (reported stuck) or find a way; it must terminate.
	if !res.Reached && !res.Stuck {
		t.Fatal("compass must either reach or report stuck")
	}
}

func TestGreedyFaceAlwaysDelivers(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 8, 8, 2.0)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		s := NodeID(rng.Intn(g.N()))
		d := NodeID(rng.Intn(g.N()))
		res := r.GreedyFace(s, d)
		if !res.Reached {
			t.Fatalf("face routing failed %d->%d on planar connected graph", s, d)
		}
	}
}

func TestGreedyFaceAcrossHole(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 8, 8, 2.0)
	s := nodeNear(g, geom.Pt(0.2, 4))
	d := nodeNear(g, geom.Pt(7.8, 4))
	res := r.GreedyFace(s, d)
	if !res.Reached {
		t.Fatal("face routing must deliver across the hole")
	}
	// It must detour: path longer than the (blocked) straight line.
	if res.Length(r.Graph()) <= g.Point(s).Dist(g.Point(d)) {
		t.Fatal("path across a hole cannot be as short as the straight line")
	}
}

func TestChewVisiblePairsCompetitive(t *testing.T) {
	g, r, hs := buildScenario(t, 0.55, 7, 7, 1.5)
	rng := rand.New(rand.NewSource(4))
	tested := 0
	for trial := 0; trial < 400 && tested < 60; trial++ {
		s := NodeID(rng.Intn(g.N()))
		d := NodeID(rng.Intn(g.N()))
		if s == d {
			continue
		}
		seg := geom.Seg(g.Point(s), g.Point(d))
		visible := true
		for _, hole := range hs.Holes {
			if hole.SegmentCrossesBoundary(seg) {
				visible = false
				break
			}
		}
		if !visible {
			continue
		}
		res := r.Chew(s, d)
		if !res.Reached {
			t.Fatalf("Chew failed on visible pair %d->%d", s, d)
		}
		if res.HoleHit {
			t.Fatalf("Chew reported hole hit on visible pair %d->%d", s, d)
		}
		stretch := res.Length(r.Graph()) / seg.Length()
		if stretch > 5.9+1e-9 {
			t.Fatalf("Chew stretch %.3f exceeds 5.9 for %d->%d", stretch, s, d)
		}
		tested++
	}
	if tested < 30 {
		t.Fatalf("only %d visible pairs tested", tested)
	}
}

func TestChewFallbackRare(t *testing.T) {
	// Even a "hole-free" jittered grid has hair-thin outer holes along its
	// boundary (Definition 2.5), so boundary-hugging segments legitimately
	// report HoleHit; for all other pairs Chew must deliver, and the
	// geometric fallback must stay rare.
	g, r, _ := buildScenario(t, 0.55, 7, 7, 0)
	rng := rand.New(rand.NewSource(5))
	fallbacks, holeHits := 0, 0
	for trial := 0; trial < 100; trial++ {
		s := NodeID(rng.Intn(g.N()))
		d := NodeID(rng.Intn(g.N()))
		res := r.Chew(s, d)
		if res.HoleHit {
			holeHits++
			continue
		}
		if !res.Reached {
			t.Fatalf("Chew failed %d->%d without a hole hit", s, d)
		}
		if res.Fallback {
			fallbacks++
		}
	}
	if fallbacks > 5 {
		t.Errorf("%d/100 Chew walks needed the fallback; corridor walk too fragile", fallbacks)
	}
	if holeHits > 25 {
		t.Errorf("%d/100 pairs hit boundary slivers; scenario unexpectedly holey", holeHits)
	}
}

func TestChewHoleHit(t *testing.T) {
	g, r, hs := buildScenario(t, 0.55, 8, 8, 2.0)
	s := nodeNear(g, geom.Pt(0.2, 4))
	d := nodeNear(g, geom.Pt(7.8, 4))
	res := r.Chew(s, d)
	if res.Reached {
		t.Fatal("Chew cannot reach across the hole without waypoints")
	}
	if !res.HoleHit {
		t.Fatal("Chew must report the hole hit")
	}
	// The hit node must lie on some hole boundary (or the outer boundary).
	onBoundary := false
	for _, hole := range hs.Holes {
		for _, v := range hole.Ring {
			if v == res.HitNode {
				onBoundary = true
			}
		}
	}
	for _, v := range hs.OuterBoundary {
		if v == res.HitNode {
			onBoundary = true
		}
	}
	if !onBoundary {
		t.Fatalf("hit node %d is not on any hole boundary", res.HitNode)
	}
	// The partial path must end at the hit node.
	if res.Path[len(res.Path)-1] != res.HitNode {
		t.Fatal("path must end at the hit node")
	}
}

func TestChewViaWaypointsAroundHole(t *testing.T) {
	g, r, hs := buildScenario(t, 0.55, 8, 8, 2.0)
	s := nodeNear(g, geom.Pt(0.2, 4))
	d := nodeNear(g, geom.Pt(7.8, 4))
	// Find the inner hole and take a hull node above the hole as waypoint.
	var way NodeID = -1
	for _, hole := range hs.Holes {
		if hole.Outer {
			continue
		}
		if !geom.PointInPolygon(geom.Pt(4, 4), hole.Polygon) {
			continue
		}
		for _, v := range hole.HullNodes {
			if g.Point(v).Y > 6.0 {
				way = v
			}
		}
	}
	if way < 0 {
		// take any node well above the hole
		way = nodeNear(g, geom.Pt(4, 7.5))
	}
	res := r.ChewVia([]NodeID{s, way, d})
	if !res.Reached {
		t.Fatal("waypoint routing must deliver")
	}
	if res.Path[0] != s || res.Path[len(res.Path)-1] != d {
		t.Fatal("path endpoints wrong")
	}
	// Consecutive path nodes must be graph edges.
	for i := 1; i < len(res.Path); i++ {
		if !r.Graph().HasEdge(res.Path[i-1], res.Path[i]) {
			t.Fatalf("path step %d: %d-%d not an edge", i, res.Path[i-1], res.Path[i])
		}
	}
}

func TestChewTrivialCases(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 4, 4, 0)
	res := r.Chew(3, 3)
	if !res.Reached || len(res.Path) != 1 {
		t.Error("self route")
	}
	// Adjacent pair.
	v := NodeID(0)
	w := r.Graph().Neighbors(v)[0]
	res = r.Chew(v, w)
	if !res.Reached || len(res.Path) != 2 {
		t.Error("adjacent route")
	}
	_ = g
}

func TestResultHelpers(t *testing.T) {
	_, r, _ := buildScenario(t, 0.6, 3, 3, 0)
	res := r.Greedy(0, NodeID(r.Graph().N()-1))
	if !res.Reached {
		t.Fatal("greedy on tiny grid")
	}
	if res.Hops() != len(res.Path)-1 {
		t.Error("hops")
	}
	if res.Length(r.Graph()) <= 0 {
		t.Error("length must be positive")
	}
	if (Result{}).Hops() != 0 {
		t.Error("empty result has 0 hops")
	}
}

func BenchmarkChew(b *testing.B) {
	g, r, _ := buildScenario(b, 0.55, 8, 8, 2.0)
	s := nodeNear(g, geom.Pt(0.2, 0.2))
	d := nodeNear(g, geom.Pt(7.8, 7.8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Chew(s, d)
	}
}

func BenchmarkGreedyFace(b *testing.B) {
	g, r, _ := buildScenario(b, 0.55, 8, 8, 2.0)
	s := nodeNear(g, geom.Pt(0.2, 4))
	d := nodeNear(g, geom.Pt(7.8, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.GreedyFace(s, d)
	}
}

func TestGOAFRDeliversOnDenseGrid(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 6, 6, 0)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		s := NodeID(rng.Intn(g.N()))
		d := NodeID(rng.Intn(g.N()))
		res := r.GOAFR(s, d)
		if !res.Reached {
			t.Fatalf("GOAFR failed on hole-free grid: %d->%d", s, d)
		}
	}
}

func TestGOAFRDeliversAcrossHole(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 8, 8, 2.0)
	s := nodeNear(g, geom.Pt(0.2, 4))
	d := nodeNear(g, geom.Pt(7.8, 4))
	res := r.GOAFR(s, d)
	if !res.Reached {
		t.Fatal("GOAFR must deliver across the hole")
	}
	// Path steps must be real edges.
	for i := 1; i < len(res.Path); i++ {
		if !r.Graph().HasEdge(res.Path[i-1], res.Path[i]) {
			t.Fatalf("GOAFR path step %d-%d not an edge", res.Path[i-1], res.Path[i])
		}
	}
}

func TestGOAFRManyPairs(t *testing.T) {
	g, r, _ := buildScenario(t, 0.55, 8, 8, 2.0)
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		s := NodeID(rng.Intn(g.N()))
		d := NodeID(rng.Intn(g.N()))
		res := r.GOAFR(s, d)
		if !res.Reached {
			t.Fatalf("GOAFR failed %d->%d", s, d)
		}
	}
}

func TestGOAFRTrivial(t *testing.T) {
	_, r, _ := buildScenario(t, 0.6, 3, 3, 0)
	res := r.GOAFR(2, 2)
	if !res.Reached || len(res.Path) != 1 {
		t.Error("self route")
	}
}
