package delaunay

import (
	"cmp"
	"slices"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// Hole is a radio hole of the ad hoc network: an inner hole is a face of
// LDel²(V) with at least 4 nodes (Definition 2.4); an outer hole is a face
// of LDel²(V) ∪ CH(V) with at least 3 nodes containing a convex hull edge
// longer than the transmission range (Definition 2.5).
type Hole struct {
	ID    int
	Ring  []udg.NodeID // boundary cycle in counterclockwise order
	Outer bool

	Polygon   []geom.Point // coordinates of Ring
	Hull      []geom.Point // convex hull of the boundary, CCW
	HullNodes []udg.NodeID // nodes of Ring on the hull, in hull order
	BBox      geom.Box     // minimum bounding box of the hull
}

// Perimeter returns the boundary length P(h) of the hole (Theorem 1.2).
func (h *Hole) Perimeter() float64 { return geom.PolygonPerimeter(h.Polygon) }

// HullCircumference returns the perimeter of the hole's convex hull.
func (h *Hole) HullCircumference() float64 { return geom.PolygonPerimeter(h.Hull) }

// BBoxCircumference returns the circumference L(c) of the minimum bounding
// box of the hole's convex hull (Theorem 1.2).
func (h *Hole) BBoxCircumference() float64 { return h.BBox.Circumference() }

// ContainsInHull reports whether p lies inside or on the hole's convex hull.
func (h *Hole) ContainsInHull(p geom.Point) bool {
	return geom.PointInConvex(p, h.Hull)
}

// SegmentCrossesBoundary reports whether the segment properly intersects the
// hole's actual boundary polygon.
func (h *Hole) SegmentCrossesBoundary(s geom.Segment) bool {
	return geom.SegmentIntersectsPolygon(s, h.Polygon)
}

// HoleSet is the collection of radio holes of a 2-localized Delaunay graph.
type HoleSet struct {
	Holes []*Hole
}

// DetectHoles finds all radio holes of the planar graph ldel (assumed to be
// LDel²(V) or a planar supergraph of it) for transmission radius r: the
// classification of ldel's Definition 2.5 map (HullMap.Holes). A crashed
// node keeps its point but has no edges (RemoveNodeEdges), so churn repair
// detects the holes of the patched graph the same way.
func DetectHoles(ldel *PlanarGraph, r float64) *HoleSet {
	return ldel.HullMap().Holes(r)
}

// HullMap is the map of Definition 2.5, LDel²(V) ∪ CH(V): a planar graph g
// plus the edges of CH(V) that g lacks, as one face table with its
// adjacency. Hole detection classifies its rows (Holes) and Chew's walk
// moves through them (routing.NewFromMap), so a build sorts for CH(V) and
// enumerates faces once.
type HullMap struct {
	FaceAdjacency
	// Outer is the outer row, CH(V) traced clockwise; -1 when no row has
	// negative area.
	Outer int
	// Hull holds the slots of the CH(V) edges that g lacks: for each such
	// edge a→b in hull order, the slot of a→b, then that of b→a.
	Hull []int32
	g    *PlanarGraph
}

// HullMap builds g's Definition 2.5 map.
func (g *PlanarGraph) HullMap() *HullMap {
	c, added := g.withHull()
	m := &HullMap{g: g}
	m.FaceAdjacency, m.Hull = c.adjacency(added)
	m.Outer = g.OuterFaceIndex(&m.Faces)
	return m
}

// Graph returns the graph the map overlays, without the CH(V) edges.
func (m *HullMap) Graph() *PlanarGraph { return m.g }

// Holes classifies the map's rows into the radio holes of g for
// transmission radius r. It reads the rows, the outer row and the hull
// slots, not Twin. Inner holes come first, in row order: rows other than
// the outer row that hold no CH(V) slot, so are faces of g itself, with
// area ≥ 0 and at least 4 distinct nodes. Outer holes follow, in row order:
// rows other than the outer row with area ≥ 0 and at least 3 distinct nodes
// that hold a CH(V) slot longer than r. Removing a cut node can disconnect
// g, giving each further component a clockwise outline of its own; the area
// test skips those rather than report them as (spurious) holes.
func (m *HullMap) Holes(r float64) *HoleSet {
	g := m.g
	// long maps each row that holds a CH(V) slot to whether one of them is
	// longer than r; the two slots of an edge sit side by side in Hull.
	long := make(map[int]bool, len(m.Hull))
	for i := 0; i < len(m.Hull); i += 2 {
		p, q := m.Hull[i], m.Hull[i+1]
		l := g.pts[m.Faces.Dat[p]].Dist(g.pts[m.Faces.Dat[q]]) > r
		for _, s := range []int32{p, q} {
			f := int(m.Faces.RowOf(s))
			long[f] = long[f] || l
		}
	}
	hs := &HoleSet{}
	var outer []int
	for f := range m.Faces.Rows() {
		cycle := m.Faces.Row(f)
		l, onHull := long[f]
		switch {
		case f == m.Outer:
		case onHull:
			if l && DistinctNodes(cycle) >= 3 && g.cycleArea(cycle) >= 0 {
				outer = append(outer, f)
			}
		case len(cycle) >= 4 && DistinctNodes(cycle) >= 4 && g.cycleArea(cycle) >= 0:
			hs.addHole(g, nodeIDs(cycle), false)
		}
	}
	for _, f := range outer {
		hs.addHole(g, nodeIDs(m.Faces.Row(f)), true)
	}
	return hs
}

// OuterBoundary returns the walk of g's unbounded face, the outer boundary
// ring of the whole network (clockwise as traced); nil when no face has
// negative area.
func (g *PlanarGraph) OuterBoundary() []udg.NodeID {
	faces := g.Faces()
	if i := g.OuterFaceIndex(&faces); i >= 0 {
		return nodeIDs(faces.Row(i))
	}
	return nil
}

// BoundaryNodeSet returns the union of all hole-boundary nodes.
func (hs *HoleSet) BoundaryNodeSet() []udg.NodeID {
	seen := map[udg.NodeID]bool{}
	var out []udg.NodeID
	for _, h := range hs.Holes {
		for _, v := range h.Ring {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// HullsIntersect reports whether any two hole hulls intersect: the paper's
// main theorem assumes they do not (Section 4.1); the routing layer checks
// and reports this assumption.
func (hs *HoleSet) HullsIntersect() bool {
	for i := 0; i < len(hs.Holes); i++ {
		for j := i + 1; j < len(hs.Holes); j++ {
			if HullsOverlap(hs.Holes[i].Hull, hs.Holes[j].Hull) {
				return true
			}
		}
	}
	return false
}

// HullsOverlap reports whether two convex hulls share at least one point.
// All forms of contact count: proper edge crossings, shared vertices,
// vertex-on-edge contact, collinear shared edges, identical hulls and full
// containment — and degenerate hulls of one or two points are handled. This
// is the boundary-inclusive test HullsIntersect needs: the disjointness
// assumption of Section 4.1 is already violated when hulls merely touch.
func HullsOverlap(a, b []geom.Point) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, s := range hullEdges(a) {
		for _, t := range hullEdges(b) {
			if geom.SegmentsIntersect(s, t) {
				return true
			}
		}
	}
	// No boundary contact: overlap remains possible only by containment.
	return geom.PointInConvex(a[0], b) || geom.PointInConvex(b[0], a)
}

// hullEdges returns the closed boundary edges of a hull; a single point
// yields one zero-length segment so contact tests stay uniform.
func hullEdges(h []geom.Point) []geom.Segment {
	if len(h) == 1 {
		return []geom.Segment{geom.Seg(h[0], h[0])}
	}
	out := make([]geom.Segment, 0, len(h))
	for i := range h {
		out = append(out, geom.Seg(h[i], h[(i+1)%len(h)]))
	}
	return out
}

// withHull returns the overlay of Definition 2.5: a clone of g with the
// edges of CH(V) that g lacks added, and those edges in hull order. CH(V) is
// the convex hull of the nodes that have edges, so a crashed node neither
// widens it nor hides a notch, and every point on its boundary is a hull
// node: where a border path is straight, the hull side is that path's own
// edges, not one edge lying over them. Coincident points resolve to the
// highest node ID.
func (g *PlanarGraph) withHull() (*PlanarGraph, [][2]udg.NodeID) {
	hull := g.hullNodes()
	c := g.Clone()
	var added [][2]udg.NodeID
	for i, a := range hull {
		// The hull of collinear points runs there and back, so ask c, not g.
		if b := hull[(i+1)%len(hull)]; a != b && !c.HasEdge(a, b) {
			c.AddEdge(a, b)
			added = append(added, [2]udg.NodeID{a, b})
		}
	}
	return c, added
}

// hullNodes returns the hull of the nodes with edges, counterclockwise from
// the lowest leftmost one, with every point on its boundary: Andrew's
// monotone chain over the nodes sorted by point, popping only on a clockwise
// turn.
func (g *PlanarGraph) hullNodes() []udg.NodeID {
	var vs []udg.NodeID
	for v := range g.N() {
		if g.Degree(udg.NodeID(v)) > 0 {
			vs = append(vs, udg.NodeID(v))
		}
	}
	slices.SortFunc(vs, func(a, b udg.NodeID) int {
		pa, pb := g.pts[a], g.pts[b]
		return cmp.Or(cmp.Compare(pa.X, pb.X), cmp.Compare(pa.Y, pb.Y), cmp.Compare(b, a))
	})
	// Coincident points sort highest ID first, and that one stays.
	vs = slices.CompactFunc(vs, func(a, b udg.NodeID) bool { return g.pts[a] == g.pts[b] })
	hull := make([]udg.NodeID, 0, 2*len(vs))
	cw := func(v udg.NodeID) bool {
		n := len(hull)
		return geom.Orient(g.pts[hull[n-2]], g.pts[hull[n-1]], g.pts[v]) == geom.Clockwise
	}
	for _, v := range vs {
		for len(hull) >= 2 && cw(v) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, v)
	}
	for i, lower := len(vs)-2, len(hull)+1; i >= 0; i-- {
		for len(hull) >= lower && cw(vs[i]) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, vs[i])
	}
	if len(hull) > 1 {
		hull = hull[:len(hull)-1] // the first node again
	}
	return hull
}

// addHole appends the hole bounded by ring, which it keeps: callers pass a
// private copy.
func (hs *HoleSet) addHole(g *PlanarGraph, ring []udg.NodeID, outer bool) {
	h := &Hole{
		ID:    len(hs.Holes),
		Ring:  ring,
		Outer: outer,
	}
	h.Polygon = make([]geom.Point, len(h.Ring))
	for i, v := range h.Ring {
		h.Polygon[i] = g.Point(v)
	}
	h.Hull = geom.ConvexHull(h.Polygon)
	h.BBox = geom.BoundingBox(h.Hull)
	// Map hull points back to ring nodes, preserving hull order.
	ptNode := make(map[geom.Point]udg.NodeID, len(h.Ring))
	for i, v := range h.Ring {
		ptNode[h.Polygon[i]] = v
	}
	h.HullNodes = make([]udg.NodeID, 0, len(h.Hull))
	for _, p := range h.Hull {
		if v, ok := ptNode[p]; ok {
			h.HullNodes = append(h.HullNodes, v)
		}
	}
	hs.Holes = append(hs.Holes, h)
}
