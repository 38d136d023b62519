package abstraction

import (
	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
	"hybridroute/internal/vis"
)

// Hull is the paper's convex-hull abstraction (Section 4): every hole is
// abstracted by its convex hull, mutually intersecting hulls merge into hull
// groups, and waypoint planning runs over the Overlay Delaunay Graph of all
// group-hull corners. Grouping uses the historical proper-overlap predicate
// — not the boundary-inclusive HullsOverlap of the intersection report — so
// the backend's regions, overlay and waypoint plans are byte-identical to
// the pre-abstraction implementation (pinned by TestHullBackendByteIdentical).
type Hull struct {
	holes    *delaunay.HoleSet
	regions  []Region
	overlay  *vis.Overlay
	cornerID map[geom.Point]udg.NodeID
}

func newHull(holes *delaunay.HoleSet) *Hull {
	a := &Hull{holes: holes}
	n := len(holes.Holes)
	groups := groupHoles(n, func(i, j int) bool {
		return hullsProperlyOverlap(holes.Holes[i].Hull, holes.Holes[j].Hull)
	})
	var polys [][]geom.Point
	for _, members := range groups {
		var pts []geom.Point
		for _, hi := range members {
			pts = append(pts, holes.Holes[hi].Hull...)
		}
		poly := geom.ConvexHull(pts)
		a.regions = append(a.regions, newRegion(members, poly))
		polys = append(polys, poly)
	}
	a.overlay = vis.NewOverlay(polys)
	a.cornerID = make(map[geom.Point]udg.NodeID)
	for _, h := range holes.Holes {
		for _, v := range h.HullNodes {
			for i, rv := range h.Ring {
				if rv == v {
					a.cornerID[h.Polygon[i]] = v
					break
				}
			}
		}
	}
	return a
}

// hullsProperlyOverlap is the historical grouping predicate: proper edge
// crossings and strict containment only (boundary contact does not merge).
func hullsProperlyOverlap(a, b []geom.Point) bool {
	if len(a) < 3 || len(b) < 3 {
		return false
	}
	for i := range a {
		s := geom.Seg(a[i], a[(i+1)%len(a)])
		for j := range b {
			if geom.SegmentsProperlyIntersect(s, geom.Seg(b[j], b[(j+1)%len(b)])) {
				return true
			}
		}
	}
	for _, p := range a {
		if geom.PointStrictlyInConvex(p, b) {
			return true
		}
	}
	for _, p := range b {
		if geom.PointStrictlyInConvex(p, a) {
			return true
		}
	}
	return false
}

func (a *Hull) Name() string      { return "hull" }
func (a *Hull) ID() uint8         { return 1 }
func (a *Hull) Regions() []Region { return a.regions }

func (a *Hull) RegionAt(p geom.Point) int          { return regionAt(a.regions, p) }
func (a *Hull) Contains(p geom.Point) bool         { return contains(a.regions, p) }
func (a *Hull) SegmentCrosses(s geom.Segment) bool { return segmentCrosses(a.regions, s) }
func (a *Hull) Overlay() *vis.Overlay              { return a.overlay }
func (a *Hull) EdgeCount() int                     { return a.overlay.EdgeCount() }

// Waypoints plans over the Overlay Delaunay Graph, exactly as the hull nodes
// of Section 4.3 do.
func (a *Hull) Waypoints(s, t geom.Point) ([]geom.Point, float64, bool) {
	return a.overlay.ShortestPath(s, t)
}

// CornerNode resolves a hull corner to the hull node at that position (hull
// corners are always node positions).
func (a *Hull) CornerNode(p geom.Point) (udg.NodeID, bool) {
	v, ok := a.cornerID[p]
	return v, ok
}

// HoleWords is the hull-abstraction storage of Theorem 1.2: three words per
// hull node (ID and position).
func (a *Hull) HoleWords(hole int) int {
	return 3 * len(a.holes.Holes[hole].HullNodes)
}

// Storage is the total per-hull-node abstraction storage: every hole's hull
// plus the overlay edges.
func (a *Hull) Storage() int {
	total := 2 * a.EdgeCount()
	for hi := range a.holes.Holes {
		total += a.HoleWords(hi)
	}
	return total
}
