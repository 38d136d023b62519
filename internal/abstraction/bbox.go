package abstraction

import (
	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
	"hybridroute/internal/vis"
)

// BBox is the bounding-box overlay abstraction (Castenow–Kolb–Scheideler):
// every hole is abstracted by the axis-aligned bounding box of its convex
// hull, overlapping boxes merge — iterated to a fixpoint, since merged boxes
// can newly overlap — and waypoint planning runs over the overlay Delaunay
// graph of the disjoint merged-box corners. Because closed-box overlap is
// well-defined for intersecting and nested hulls, the backend keeps planning
// competitively exactly where the hull abstraction's disjointness assumption
// breaks; each hole costs O(1) abstraction words instead of O(hull nodes).
type BBox struct {
	holes    *delaunay.HoleSet
	regions  []Region
	overlay  *vis.Overlay
	adj      [][]int // overlay adjacency over corner indices
	corners  []geom.Point
	base     []int // first corner index of each region
	cornerID map[geom.Point]udg.NodeID
}

func newBBox(holes *delaunay.HoleSet) *BBox {
	a := &BBox{holes: holes}
	n := len(holes.Holes)

	// Merge overlapping boxes to a fixpoint of disjointness.
	groups := make([][]int, n)
	boxes := make([]geom.Box, n)
	for i, h := range holes.Holes {
		groups[i] = []int{i}
		boxes[i] = h.BBox
	}
	for {
		// Closed-box overlap includes containment, so nested holes always
		// merge.
		merged := groupHoles(len(groups), func(i, j int) bool {
			return boxes[i].Overlaps(boxes[j])
		})
		if len(merged) == len(groups) {
			break
		}
		next := make([][]int, 0, len(merged))
		nextBoxes := make([]geom.Box, 0, len(merged))
		for _, set := range merged {
			var members []int
			box := boxes[set[0]]
			for _, gi := range set {
				members = append(members, groups[gi]...)
				box = box.Union(boxes[gi])
			}
			sortInts(members)
			next = append(next, members)
			nextBoxes = append(nextBoxes, box)
		}
		groups, boxes = next, nextBoxes
	}

	var polys [][]geom.Point
	for gi, members := range groups {
		corners := boxes[gi].Corners()
		poly := corners[:]
		a.regions = append(a.regions, newRegion(members, poly))
		polys = append(polys, poly)
	}
	a.overlay = vis.NewOverlay(polys)
	a.corners = a.overlay.Corners()
	a.adj = make([][]int, len(a.corners))
	for _, e := range a.overlay.Edges() {
		a.adj[e[0]] = append(a.adj[e[0]], e[1])
		a.adj[e[1]] = append(a.adj[e[1]], e[0])
	}
	a.base = make([]int, len(polys))
	off := 0
	for i, poly := range polys {
		a.base[i] = off
		off += len(poly)
	}
	// Resolve every synthetic box corner to the nearest boundary node of the
	// region's member holes: the node that physically stands in for it.
	a.cornerID = make(map[geom.Point]udg.NodeID, len(a.corners))
	for ri, r := range a.regions {
		for i := range r.Poly {
			if v, ok := nearestRingNode(holes, r.Holes, r.Poly[i]); ok {
				a.cornerID[a.corners[a.base[ri]+i]] = v
			}
		}
	}
	return a
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func (a *BBox) Name() string      { return "bbox" }
func (a *BBox) ID() uint8         { return 2 }
func (a *BBox) Regions() []Region { return a.regions }

func (a *BBox) RegionAt(p geom.Point) int          { return regionAt(a.regions, p) }
func (a *BBox) Contains(p geom.Point) bool         { return contains(a.regions, p) }
func (a *BBox) SegmentCrosses(s geom.Segment) bool { return segmentCrosses(a.regions, s) }
func (a *BBox) Overlay() *vis.Overlay              { return a.overlay }
func (a *BBox) EdgeCount() int                     { return a.overlay.EdgeCount() }

// CornerNode resolves a synthetic box corner to the boundary node standing
// in for it.
func (a *BBox) CornerNode(p geom.Point) (udg.NodeID, bool) {
	v, ok := a.cornerID[p]
	return v, ok
}

// HoleWords is the bounding-box storage per hole: the two box corners plus
// the hole identifier — O(1) words, the backend's storage advantage.
func (a *BBox) HoleWords(int) int { return 5 }

// Storage is the total per-hull-node abstraction storage: every hole's box
// plus the overlay edges.
func (a *BBox) Storage() int {
	return 5*len(a.holes.Holes) + 2*a.EdgeCount()
}

// Waypoints plans a box-avoiding path over the corner overlay. Unlike the
// vis shortest paths it accepts endpoints strictly inside a box — every
// hole-boundary node is — by connecting such an endpoint to its own region's
// corners (the in-region legs are realized by the corridor walk, which falls
// back per leg when a leg crosses the hole itself).
func (a *BBox) Waypoints(s, t geom.Point) ([]geom.Point, float64, bool) {
	rs, rt := a.RegionAt(s), a.RegionAt(t)
	if rs < 0 && rt < 0 {
		return a.overlay.ShortestPath(s, t)
	}
	if rs >= 0 && rs == rt {
		// Same region: the overlay cannot improve on the direct leg.
		return []geom.Point{s, t}, s.Dist(t), true
	}
	return vis.Search(a.corners, a.adj, s, t, a.links(s, rs), a.links(t, rt))
}

// links returns which corners endpoint p joins: its own region's corners
// when it lies in region, else the corners it sees, decided from the
// overlay's view of the boxes from p (geom.Box.Corners lists them
// counterclockwise; a degenerate box is left to the predicate).
func (a *BBox) links(p geom.Point, region int) func(int) bool {
	if region >= 0 {
		return func(i int) bool { return a.cornerRegion(i) == region }
	}
	return a.overlay.Links(p)
}

// cornerRegion returns the region a corner index belongs to.
func (a *BBox) cornerRegion(ci int) int {
	for ri := len(a.base) - 1; ri >= 0; ri-- {
		if ci >= a.base[ri] {
			return ri
		}
	}
	return -1
}
