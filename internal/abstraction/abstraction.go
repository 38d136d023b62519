// Package abstraction defines the pluggable hole abstraction behind the
// routing pipeline: how a set of detected radio holes is condensed into
// disjoint convex regions, how messages test and avoid those regions, and
// what each node must store for it.
//
// Two backends implement the contract:
//
//   - "hull" (the default) is the paper's convex-hull abstraction: every
//     hole contributes its convex hull, mutually intersecting hulls are
//     merged into hull groups, and waypoint plans run over the Overlay
//     Delaunay Graph of all hull corners (Section 4). Its routing output is
//     byte-identical to the pre-abstraction implementation (pinned by test).
//
//   - "bbox" is the bounding-box overlay of Castenow–Kolb–Scheideler ("A
//     Bounding Box Overlay for Competitive Routing in Hybrid Communication
//     Networks"): every hole contributes the axis-aligned bounding box of
//     its hull, overlapping boxes are merged to a fixpoint of disjointness,
//     and waypoint plans run over the box-corner overlay. Because merging is
//     closed-box overlap, it stays well-defined — and competitive — when
//     hole hulls intersect or nest, exactly where the hull abstraction's
//     disjointness assumption fails; per-hole storage drops to O(1) words.
package abstraction

import (
	"fmt"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
	"hybridroute/internal/vis"
)

// Region is one merged obstacle of the abstraction: the maximal set of holes
// whose abstracted shapes overlap, condensed into a single convex region.
type Region struct {
	Holes []int        // indices into the HoleSet's Holes
	Poly  []geom.Point // convex region polygon, CCW
	box   geom.Box     // bounding box of Poly
}

func newRegion(holes []int, poly []geom.Point) Region {
	return Region{Holes: holes, Poly: poly, box: geom.BoundingBox(poly)}
}

// Abstraction is the pluggable hole pipeline: region geometry, crossing
// tests, waypoint planning and storage accounting. Implementations are
// immutable after construction and safe for concurrent use.
type Abstraction interface {
	// Name is the backend's registry name ("hull", "bbox").
	Name() string
	// ID is a stable one-byte backend identifier, mixed into the engine's
	// cache keys so answers planned under one abstraction are never served
	// to another.
	ID() uint8
	// Regions returns the disjoint merged obstacle regions in deterministic
	// order (by smallest member hole index).
	Regions() []Region
	// RegionAt returns the index of the region strictly containing p, or -1.
	RegionAt(p geom.Point) int
	// Contains reports whether p lies inside or on the boundary of a region.
	Contains(p geom.Point) bool
	// SegmentCrosses reports whether the segment passes through a region.
	SegmentCrosses(s geom.Segment) bool
	// Waypoints returns a region-avoiding waypoint path from a to b with its
	// length. A backend may reject endpoints it cannot plan for (ok=false;
	// the router then exits the region first or falls back) — but a backend
	// whose regions strictly contain hole-boundary nodes (bbox) must accept
	// interior endpoints, since every post-hole-hit plan starts at one.
	Waypoints(a, b geom.Point) ([]geom.Point, float64, bool)
	// CornerNode resolves a region corner point to the network node that
	// realizes it: the hull node itself for the hull backend, the nearest
	// hole-boundary node for synthetic corners (box corners).
	CornerNode(p geom.Point) (udg.NodeID, bool)
	// HoleWords is the per-hole storage in words a node pays for hole hi's
	// abstracted shape (Theorem 1.2's accounting, generalized).
	HoleWords(hole int) int
	// EdgeCount is the number of undirected edges of the waypoint overlay.
	EdgeCount() int
	// Storage is the total abstraction storage a hull-class node carries:
	// every hole's abstracted shape plus the overlay edges.
	Storage() int
	// Overlay exposes the waypoint overlay graph over the region corners.
	Overlay() *vis.Overlay
}

// Names lists the registered backend names.
func Names() []string { return []string{"hull", "bbox"} }

// New constructs the named backend over a detected hole set. The empty name
// selects the default convex-hull abstraction.
func New(name string, holes *delaunay.HoleSet) (Abstraction, error) {
	switch name {
	case "", "hull":
		return newHull(holes), nil
	case "bbox":
		return newBBox(holes), nil
	default:
		return nil, fmt.Errorf("abstraction: unknown backend %q (have %v)", name, Names())
	}
}

// regionAt is the shared strict-containment region lookup. The box test
// first is exact: a point outside a region's closed bounding box is not
// strictly inside its polygon.
func regionAt(regions []Region, p geom.Point) int {
	for i := range regions {
		r := &regions[i]
		if r.box.Contains(p) && len(r.Poly) >= 3 && geom.PointStrictlyInConvex(p, r.Poly) {
			return i
		}
	}
	return -1
}

// contains is the shared boundary-inclusive containment test.
func contains(regions []Region, p geom.Point) bool {
	for i := range regions {
		if geom.PointInConvex(p, regions[i].Poly) {
			return true
		}
	}
	return false
}

// segmentCrosses is the shared region-crossing test: a proper crossing, an
// interior pass, or an endpoint strictly inside a region (which the sampled
// visibility test can miss when only a sliver of the segment is interior).
func segmentCrosses(regions []Region, s geom.Segment) bool {
	for i := range regions {
		poly := regions[i].Poly
		if geom.PointStrictlyInConvex(s.A, poly) || geom.PointStrictlyInConvex(s.B, poly) ||
			geom.SegmentIntersectsPolygon(s, poly) {
			return true
		}
	}
	return false
}

// groupHoles unions holes whose abstracted shapes overlap (per the given
// predicate on hole indices) and returns the member sets in deterministic
// order: by smallest member index, members ascending.
func groupHoles(n int, overlap func(i, j int) bool) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if overlap(i, j) {
				parent[find(i)] = find(j)
			}
		}
	}
	members := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		members[r] = append(members[r], i) // ascending by construction
	}
	var roots []int
	for r := range members {
		roots = append(roots, r)
	}
	for i := 0; i < len(roots); i++ { // insertion sort by min member
		for j := i; j > 0 && members[roots[j]][0] < members[roots[j-1]][0]; j-- {
			roots[j], roots[j-1] = roots[j-1], roots[j]
		}
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, members[r])
	}
	return out
}

// nearestRingNode returns the hole-boundary node of the given holes closest
// to p (ties broken toward the smaller node ID, for determinism).
func nearestRingNode(holes *delaunay.HoleSet, members []int, p geom.Point) (udg.NodeID, bool) {
	best := udg.NodeID(-1)
	bestD := -1.0
	for _, hi := range members {
		h := holes.Holes[hi]
		for i, v := range h.Ring {
			d := h.Polygon[i].Dist2(p)
			if best < 0 || d < bestD || (d == bestD && v < best) {
				best, bestD = v, d
			}
		}
	}
	return best, best >= 0
}
