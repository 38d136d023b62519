package delaunay

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// refHullNodes is the hull that keeps collinear points, found the plain way:
// the corners geom.ConvexHull returns over the nodes with edges, each
// followed by the nodes strictly inside the side to the next corner, nearest
// first. A point maps to the highest ID among the nodes with edges there.
func refHullNodes(g *PlanarGraph) []udg.NodeID {
	id := map[geom.Point]udg.NodeID{}
	var pts []geom.Point
	for v := range g.N() {
		if g.Degree(udg.NodeID(v)) > 0 {
			id[g.Point(udg.NodeID(v))] = udg.NodeID(v)
			pts = append(pts, g.Point(udg.NodeID(v)))
		}
	}
	corners := geom.ConvexHull(pts)
	var out []udg.NodeID
	for i, a := range corners {
		out = append(out, id[a])
		if len(corners) < 2 {
			break
		}
		b := corners[(i+1)%len(corners)]
		var side []geom.Point
		for p := range id {
			if p != a && p != b && geom.OnSegment(p, geom.Seg(a, b)) {
				side = append(side, p)
			}
		}
		slices.SortFunc(side, func(p, q geom.Point) int { return cmp.Compare(p.Dist(a), q.Dist(a)) })
		for _, p := range side {
			out = append(out, id[p])
		}
	}
	return out
}

// meets reports whether the segments of edges ab and uv share a point other
// than a common end: they cross, touch, or overlap along a common end's ray.
func meets(g *PlanarGraph, a, b, u, v udg.NodeID) bool {
	if a == v || b == v {
		u, v = v, u
	}
	if b == u {
		a, b = b, a
	}
	if a == u { // a common end: they meet again only by overlapping
		pa, pb, pv := g.Point(a), g.Point(b), g.Point(v)
		return geom.Orient(pa, pb, pv) == geom.Collinear && pb.Sub(pa).Dot(pv.Sub(pa)) > 0
	}
	return geom.SegmentsIntersect(geom.Seg(g.Point(a), g.Point(b)), geom.Seg(g.Point(u), g.Point(v)))
}

// plane reports whether no two edges of g meet beyond a common end.
func plane(g *PlanarGraph) bool {
	edges := g.Edges()
	for i, e := range edges {
		for _, f := range edges[i+1:] {
			if meets(g, udg.NodeID(e[0]), udg.NodeID(e[1]), udg.NodeID(f[0]), udg.NodeID(f[1])) {
				return false
			}
		}
	}
	return true
}

// checkWithHull holds g.withHull to its contract: its hull is the reference
// hull node for node; the overlay is g plus the added edges; every added edge
// joins two consecutive hull nodes that g does not join, and meets no edge
// of g beyond a common end; every pair of consecutive hull nodes is joined in
// the overlay; and where g is plane, the overlay's map is plane by Euler's
// formula.
func checkWithHull(g *PlanarGraph) error {
	hull := g.hullNodes()
	if want := refHullNodes(g); !slices.Equal(hull, want) {
		return fmt.Errorf("hull %v, reference %v", hull, want)
	}
	gbar, added := g.withHull()
	if gbar.EdgeCount() != g.EdgeCount()+len(added) {
		return fmt.Errorf("the overlay has %d edges, g %d plus %d added", gbar.EdgeCount(), g.EdgeCount(), len(added))
	}
	consecutive := func(a, b udg.NodeID) bool {
		for i, u := range hull {
			if w := hull[(i+1)%len(hull)]; u == a && w == b || u == b && w == a {
				return true
			}
		}
		return false
	}
	for _, e := range added {
		a, b := e[0], e[1]
		switch {
		case !consecutive(a, b):
			return fmt.Errorf("added edge %v joins no consecutive hull nodes of %v", e, hull)
		case g.HasEdge(a, b):
			return fmt.Errorf("added edge %v is an edge of g", e)
		}
		for _, f := range g.Edges() {
			if meets(g, a, b, udg.NodeID(f[0]), udg.NodeID(f[1])) {
				return fmt.Errorf("added edge %v meets edge %v of g", e, f)
			}
		}
	}
	for i, a := range hull {
		if b := hull[(i+1)%len(hull)]; a != b && !gbar.HasEdge(a, b) {
			return fmt.Errorf("consecutive hull nodes %d and %d are not joined", a, b)
		}
	}
	if plane(g) {
		if v, e, f, c := eulerCounts(gbar); v-e+f != 2*c {
			return fmt.Errorf("plane g, but its overlay has V − E + F = %d, 2C = %d", v-e+f, 2*c)
		}
	}
	return nil
}

// latticePoints decodes fuzz input into at most 48 distinct points of a
// 16×16 lattice of spacing 0.5, one byte each.
func latticePoints(data []byte) []geom.Point {
	seen := map[byte]bool{}
	var pts []geom.Point
	for _, b := range data {
		if !seen[b] && len(pts) < 48 {
			seen[b] = true
			pts = append(pts, geom.Pt(0.5*float64(b&15), 0.5*float64(b>>4)))
		}
	}
	return pts
}

// FuzzWithHull checks withHull, the face adjacency of the overlay it
// returns, the HullMap built from it and DetectHoles against the two-table
// oracle, on the LDel² graph (radius 1) of small point sets snapped to a
// lattice, where borders and interior lines are exactly collinear and
// cocircular quadruples make some graphs non-plane. The map and the holes
// are checked again with up to three nodes detached, as churn repair
// detaches them.
func FuzzWithHull(f *testing.F) {
	for _, seed := range []string{
		"",
		"\x00",
		"\x00\x01",
		"\x00\x01\x02\x03\x04",             // a row
		"\x00\x01\x02\x05\x06\x07",         // a row with a gap wider than r
		"\x00\x10\x20\x30\x40",             // a column
		"\x00\x11\x22\x33\x44\x55",         // a diagonal
		"\x00\x02\x04\x40\x42\x44\x20\x24", // a square's border, gaps of r
		"\x00\x01\x02\x03\x10\x11\x12\x13\x20\x21\x22\x23",                                         // a block
		"\x00\x01\x02\x03\x04\x05\x06\x07\x17\x27\x37\x47\x46\x45\x44\x43\x42\x41\x40\x30\x20\x10", // a ring
		"\x00\x08\x80\x88\x44",             // components apart
		"\x00\x01\x10\x11\x33\x35\x53",     // a block and a spread triple
		"\x00\x03\x30\x33\x11\x12\x21\x22", // an island inside a wide square
		" 02B0",                            // a path of four, two triangles behind long hull edges
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := LDel2Fast(udg.Build(latticePoints(data), 1))
		if err := checkWithHull(g); err != nil {
			t.Fatal(err)
		}
		gbar, _ := g.withHull()
		if err := checkFaceAdjacency(gbar); err != nil {
			t.Fatal(err)
		}
		live := g.Clone()
		for i, b := range data {
			if i < 3 && b < byte(g.N()) {
				live.RemoveNodeEdges(udg.NodeID(b))
			}
		}
		for _, g := range []*PlanarGraph{g, live} {
			if err := checkHullMap(g); err != nil {
				t.Fatal(err)
			}
			if err := checkDetectHoles(g, 1, twoTablesWithoutTreeOutlines); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// twoTablesWithoutTreeOutlines is the two-table oracle without the one
// class of faces it reports and the map does not: the outline of a tree
// component of g that meets CH(V). A tree has one face, its outline, which
// walks every edge both ways and has area 0, so the oracle, which skips
// only the outer face and faces of negative area, reports it as an inner
// hole. The map adds the hull edges at the outline's corners and splits it
// into rows that hold CH(V) slots, none of them an inner hole.
func twoTablesWithoutTreeOutlines(g *PlanarGraph, r float64) (*HoleSet, []udg.NodeID) {
	hs, boundary := twoTableDetectHoles(g, r)
	onHull := map[udg.NodeID]bool{}
	_, added := g.withHull()
	for _, e := range added {
		onHull[e[0]], onHull[e[1]] = true, true
	}
	kept := &HoleSet{}
	for _, h := range hs.Holes {
		if h.Outer || !treeOutline(h.Ring) || !slices.ContainsFunc(h.Ring, func(v udg.NodeID) bool { return onHull[v] }) {
			kept.addHole(g, h.Ring, h.Outer)
		}
	}
	return kept, boundary
}

// treeOutline reports whether the closed walk ring takes every edge both
// ways, as the one face of a tree does.
func treeOutline(ring []udg.NodeID) bool {
	steps := map[[2]udg.NodeID]bool{}
	for i, v := range ring {
		steps[[2]udg.NodeID{v, ring[(i+1)%len(ring)]}] = true
	}
	for s := range steps {
		if !steps[[2]udg.NodeID{s[1], s[0]}] {
			return false
		}
	}
	return true
}

// checkHullMap holds g.HullMap to the overlay it enumerates: the same face
// table and adjacency as the overlay's own, the outer row its outer face,
// and the hull slots exactly the added edges, each in both directions.
func checkHullMap(g *PlanarGraph) error {
	gbar, added := g.withHull()
	m := g.HullMap()
	fa, _ := gbar.adjacency(nil)
	if !reflect.DeepEqual(m.FaceAdjacency, fa) {
		return fmt.Errorf("the map's face table or adjacency differs from the overlay's")
	}
	if outer := gbar.OuterFaceIndex(&fa.Faces); m.Outer != outer {
		return fmt.Errorf("outer row %d, the overlay's outer face %d", m.Outer, outer)
	}
	want := map[[2]int32]bool{}
	for _, e := range added {
		want[[2]int32{int32(e[0]), int32(e[1])}] = true
		want[[2]int32{int32(e[1]), int32(e[0])}] = true
	}
	got := map[[2]int32]bool{}
	for _, p := range m.Hull {
		// The head of slot p is the tail of its twin.
		got[[2]int32{m.Faces.Dat[p], m.Faces.Dat[m.Twin[p]]}] = true
	}
	if len(m.Hull) != len(want) || !maps.Equal(got, want) {
		return fmt.Errorf("hull slots %v, want the added edges %v both ways", got, added)
	}
	return nil
}

// TestWithHullCoincidentPoints pins the rule for coincident points: of the
// nodes with edges at one point, the highest ID is the hull node.
func TestWithHullCoincidentPoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 3), geom.Pt(3, 0), geom.Pt(3, 0)}
	g := NewPlanarGraph(pts, [][2]int{{0, 1}, {0, 3}, {0, 2}}) // node 4 has no edges
	_, added := g.withHull()
	if hull := g.hullNodes(); !slices.Equal(hull, []udg.NodeID{0, 3, 2}) || !slices.Equal(added, [][2]udg.NodeID{{3, 2}}) {
		t.Fatalf("hull %v adding %v, want [0 3 2] adding [[3 2]]", hull, added)
	}
}
