package delaunay

import (
	"math"
	"math/rand"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// gridWithHole builds a grid of points with spacing s over [0,w]×[0,h],
// removing all points within radius hole of center, and returns the UDG with
// unit radius.
func gridWithHole(s, w, h, hole float64) *udg.Graph {
	center := geom.Pt(w/2, h/2)
	var pts []geom.Point
	for x := 0.0; x <= w+1e-9; x += s {
		for y := 0.0; y <= h+1e-9; y += s {
			// Tiny deterministic jitter avoids co-circular degeneracies.
			p := geom.Pt(x+1e-4*math.Sin(13*x+7*y), y+1e-4*math.Cos(11*x-5*y))
			if p.Dist(center) < hole {
				continue
			}
			pts = append(pts, p)
		}
	}
	return udg.Build(pts, 1)
}

func TestLDel2EdgesWithinRange(t *testing.T) {
	g := gridWithHole(0.6, 6, 6, 0)
	ld := LDelK(g, 2)
	for _, e := range ld.Edges() {
		d := g.Point(udg.NodeID(e[0])).Dist(g.Point(udg.NodeID(e[1])))
		if d > g.Radius()+1e-12 {
			t.Fatalf("edge %v has length %v > radius", e, d)
		}
	}
}

func TestLDel2IsPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		pts := randomPts(rng, 150, 6, 6)
		g := udg.Build(pts, 1)
		ld := LDelK(g, 2)
		edges := ld.Edges()
		for i := 0; i < len(edges); i++ {
			si := geom.Seg(pts[edges[i][0]], pts[edges[i][1]])
			for j := i + 1; j < len(edges); j++ {
				sj := geom.Seg(pts[edges[j][0]], pts[edges[j][1]])
				if geom.SegmentsProperlyIntersect(si, sj) {
					t.Fatalf("edges %v and %v cross: LDel2 must be planar", edges[i], edges[j])
				}
			}
		}
	}
}

func TestLDel2ContainsGabrielEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randomPts(rng, 100, 5, 5)
	g := udg.Build(pts, 1)
	ld := LDelK(g, 2)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(udg.NodeID(u)) {
			if int(v) < u {
				continue
			}
			gabriel := true
			for w := 0; w < g.N(); w++ {
				if w == u || w == int(v) {
					continue
				}
				if geom.InDiametralCircle(pts[u], pts[v], pts[w]) {
					gabriel = false
					break
				}
			}
			if gabriel && !ld.HasEdge(udg.NodeID(u), v) {
				t.Fatalf("Gabriel edge (%d,%d) missing from LDel2", u, v)
			}
		}
	}
}

func TestLDel2EqualsDelaunayWhenRadiusLarge(t *testing.T) {
	// With a radius exceeding the diameter of the point set, the UDG is the
	// complete graph and LDel^k coincides with the Delaunay graph.
	rng := rand.New(rand.NewSource(3))
	pts := randomPts(rng, 60, 1, 1)
	g := udg.Build(pts, 10)
	ld := LDelK(g, 1)
	tr := Triangulate(pts)
	want := map[[2]int]bool{}
	for _, e := range tr.Edges() {
		want[e] = true
	}
	got := map[[2]int]bool{}
	for _, e := range ld.Edges() {
		got[e] = true
	}
	for e := range want {
		if !got[e] {
			t.Errorf("Delaunay edge %v missing from LDel with complete UDG", e)
		}
	}
	for e := range got {
		if !want[e] {
			t.Errorf("extra edge %v not in Delaunay graph", e)
		}
	}
}

func TestLDel2ConnectedWhenUDGConnected(t *testing.T) {
	g := gridWithHole(0.6, 6, 6, 1.4)
	if !g.Connected() {
		t.Skip("grid UDG disconnected; parameters too aggressive")
	}
	ld := LDelK(g, 2)
	if !ld.Connected() {
		t.Fatal("LDel2 must stay connected (it contains a UDG spanner)")
	}
}

func TestLDel2SpannerOfUDG(t *testing.T) {
	// Theorem 2.9: LDel2 contains a path of length at most 1.998 times the
	// UDG shortest-path distance. Empirical check over sampled pairs.
	g := gridWithHole(0.55, 7, 7, 1.6)
	if !g.Connected() {
		t.Skip("UDG disconnected")
	}
	ld := LDelK(g, 2)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		s := udg.NodeID(rng.Intn(g.N()))
		d := udg.NodeID(rng.Intn(g.N()))
		if s == d {
			continue
		}
		_, udgLen, ok := g.ShortestPath(s, d)
		if !ok {
			t.Fatal("connected UDG")
		}
		_, ldLen, ok := ld.ShortestPath(s, d)
		if !ok {
			t.Fatal("connected LDel2")
		}
		if ldLen > 1.998*udgLen+1e-9 {
			t.Fatalf("LDel2 stretch %v exceeds 1.998 (pair %d-%d)", ldLen/udgLen, s, d)
		}
	}
}

func TestFacesEulerFormula(t *testing.T) {
	// V - E + F = 2 for connected planar graphs.
	g := gridWithHole(0.6, 5, 5, 1.2)
	if !g.Connected() {
		t.Skip("UDG disconnected")
	}
	ld := LDelK(g, 2)
	if !ld.Connected() {
		t.Skip("LDel disconnected")
	}
	faces := ld.Faces()
	v, e, f := ld.N(), ld.EdgeCount(), faces.Rows()
	if v-e+f != 2 {
		t.Fatalf("Euler: V=%d E=%d F=%d gives %d, want 2", v, e, f, v-e+f)
	}
}

func TestFacesPartitionDirectedEdges(t *testing.T) {
	g := gridWithHole(0.6, 4, 4, 0)
	ld := LDelK(g, 2)
	total := 0
	faces := ld.Faces()
	for i := 0; i < faces.Rows(); i++ {
		total += len(faces.Row(i))
	}
	if total != 2*ld.EdgeCount() {
		t.Fatalf("faces cover %d directed edges, want %d", total, 2*ld.EdgeCount())
	}
}

func TestDetectInnerHole(t *testing.T) {
	g := gridWithHole(0.6, 6, 6, 1.5)
	if !g.Connected() {
		t.Skip("UDG disconnected")
	}
	ld := LDelK(g, 2)
	hs := DetectHoles(ld, g.Radius())
	if len(hs.Holes) == 0 {
		t.Fatal("expected at least one hole around the removed disk")
	}
	center := geom.Pt(3, 3)
	found := false
	for _, h := range hs.Holes {
		if h.Outer {
			continue
		}
		if geom.PointInPolygon(center, h.Polygon) {
			found = true
			if len(h.Ring) < 4 {
				t.Errorf("inner hole ring too small: %d", len(h.Ring))
			}
			if len(h.Hull) < 3 {
				t.Errorf("hull degenerate: %v", h.Hull)
			}
			if len(h.HullNodes) != len(h.Hull) {
				t.Errorf("hull nodes %d != hull vertices %d", len(h.HullNodes), len(h.Hull))
			}
			if h.Perimeter() <= 0 || h.HullCircumference() <= 0 {
				t.Error("perimeter and circumference must be positive")
			}
			if !h.ContainsInHull(center) {
				t.Error("center must lie inside the hull")
			}
		}
	}
	if !found {
		t.Fatal("no hole contains the removed-disk center")
	}
}

func TestNoHolesOnDenseGrid(t *testing.T) {
	g := gridWithHole(0.5, 5, 5, 0)
	ld := LDelK(g, 2)
	hs := DetectHoles(ld, g.Radius())
	for _, h := range hs.Holes {
		if !h.Outer && geom.PolygonArea(h.Polygon) > 2.0 {
			t.Fatalf("unexpectedly large inner hole on dense grid: area %v", geom.PolygonArea(h.Polygon))
		}
	}
}

func TestDetectOuterHole(t *testing.T) {
	// A "C"-shaped (non-convex) region produces an outer hole: the notch is
	// bounded by a convex-hull edge longer than the radius.
	var pts []geom.Point
	for x := 0.0; x <= 6; x += 0.55 {
		for y := 0.0; y <= 6; y += 0.55 {
			// The notch: a deep rectangular bite from the right side.
			if x > 2.2 && y > 2.2 && y < 3.8 {
				continue
			}
			p := geom.Pt(x+1e-4*math.Sin(9*x+3*y), y+1e-4*math.Cos(7*x-2*y))
			pts = append(pts, p)
		}
	}
	g := udg.Build(pts, 1)
	if !g.Connected() {
		t.Skip("UDG disconnected")
	}
	ld := LDelK(g, 2)
	hs := DetectHoles(ld, g.Radius())
	hasOuter := false
	for _, h := range hs.Holes {
		if h.Outer {
			hasOuter = true
			if len(h.Ring) < 3 {
				t.Errorf("outer hole ring too small: %d", len(h.Ring))
			}
		}
	}
	if !hasOuter {
		t.Fatal("expected an outer hole for the C-shaped region")
	}
}

func TestHullsIntersectDetection(t *testing.T) {
	mk := func(ring []geom.Point) *Hole {
		return &Hole{Polygon: ring, Hull: geom.ConvexHull(ring)}
	}
	a := mk([]geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)})
	b := mk([]geom.Point{geom.Pt(1, 1), geom.Pt(3, 1), geom.Pt(3, 3), geom.Pt(1, 3)})
	c := mk([]geom.Point{geom.Pt(5, 5), geom.Pt(6, 5), geom.Pt(6, 6), geom.Pt(5, 6)})
	hs := &HoleSet{Holes: []*Hole{a, b}}
	if !hs.HullsIntersect() {
		t.Error("overlapping hulls not detected")
	}
	hs2 := &HoleSet{Holes: []*Hole{a, c}}
	if hs2.HullsIntersect() {
		t.Error("disjoint hulls flagged as intersecting")
	}
	// Nested hulls intersect too.
	inner := mk([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(1, 0.5), geom.Pt(1, 1), geom.Pt(0.5, 1)})
	hs3 := &HoleSet{Holes: []*Hole{a, inner}}
	if !hs3.HullsIntersect() {
		t.Error("nested hulls not detected")
	}
}

func TestPlanarGraphAddEdge(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)}
	g := NewPlanarGraph(pts, [][2]int{{0, 1}})
	if g.HasEdge(0, 2) {
		t.Error("edge should be absent")
	}
	g.AddEdge(0, 2)
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("AddEdge failed")
	}
	g.AddEdge(0, 2) // idempotent
	if g.Degree(0) != 2 {
		t.Errorf("degree(0) = %d", g.Degree(0))
	}
	g.AddEdge(1, 1) // self loop ignored
	if g.Degree(1) != 1 {
		t.Errorf("self loop must be ignored, degree=%d", g.Degree(1))
	}
}

func TestPlanarGraphRotationSorted(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(-1, 0), geom.Pt(0, -1)}
	g := NewPlanarGraph(pts, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	rot := g.Neighbors(0)
	// Angles: 1 at 0, 2 at π/2, 3 at π, 4 at -π/2 → sorted: 4, 1, 2, 3.
	want := []udg.NodeID{4, 1, 2, 3}
	for i, v := range rot {
		if v != want[i] {
			t.Fatalf("rotation = %v, want %v", rot, want)
		}
	}
}

func BenchmarkLDel2Grid(b *testing.B) {
	g := gridWithHole(0.6, 8, 8, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LDelK(g, 2)
	}
}
