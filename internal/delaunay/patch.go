// Incremental topology patching for dynamic membership (churn): removing a
// crashed node's edges from the embedding and re-detecting radio holes while
// reusing the derived geometry (hull, polygon, bounding box) of every hole
// whose boundary ring did not change. Hole detection itself is re-run — the
// face structure is global — but hull recomputation is the expensive part per
// hole, and under a single localized membership change almost every ring is
// untouched.

package delaunay

import (
	"strconv"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// RemoveNodeEdges deletes every edge incident to v and returns v's former
// neighbours. Deleting entries preserves the CCW order of the remaining
// rotations, so the embedding stays a valid rotation system; v itself stays
// in the graph as an isolated point (node IDs are stable).
func (g *PlanarGraph) RemoveNodeEdges(v udg.NodeID) []udg.NodeID {
	nbrs := append([]udg.NodeID(nil), g.row(v)...)
	for _, w := range nbrs {
		a := g.materialize(w)
		out := a[:0]
		for _, x := range a {
			if x != v {
				out = append(out, x)
			}
		}
		g.mut[w] = out
	}
	g.mut[v] = g.materialize(v)[:0]
	return nbrs
}

// ringKey canonicalizes a boundary cycle for identity comparison across two
// hole detections: rotate the cycle to start at its minimum node, preserving
// orientation (faces are always traced in a fixed orientation, so two
// detections of the same ring produce rotations of each other).
func ringKey(cycle []udg.NodeID, outer bool) string {
	if len(cycle) == 0 {
		return ""
	}
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	buf := make([]byte, 0, 8*len(cycle)+2)
	if outer {
		buf = append(buf, 'o')
	} else {
		buf = append(buf, 'i')
	}
	for i := 0; i < len(cycle); i++ {
		buf = strconv.AppendInt(buf, int64(cycle[(min+i)%len(cycle)]), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// DetectHolesLive finds the radio holes of a planar graph under dynamic
// membership: excluded marks dead nodes, whose (isolated) points are left out
// of the convex-hull overlay of Definition 2.5 so a corpse on the perimeter
// cannot fabricate or hide an outer hole. When prev is non-nil, any detected
// hole whose boundary ring is identical to a hole of prev reuses that hole's
// derived geometry instead of recomputing it; the second return value counts
// reused holes. DetectHolesLive(g, r, nil, nil) is exactly DetectHoles(g, r).
func DetectHolesLive(ldel *PlanarGraph, r float64, excluded map[udg.NodeID]bool, prev *HoleSet) (*HoleSet, int) {
	return detectHoles(ldel, r, excluded, prev)
}

// DetectHoles finds all radio holes of the planar graph ldel (assumed to be
// LDel²(V) or a planar supergraph of it) for transmission radius r.
//
// Inner holes are bounded faces with ≥ 4 distinct nodes. For outer holes,
// the convex hull CH(V) of the node set is overlaid (Definition 2.5) and
// bounded faces of the combined graph with ≥ 3 nodes containing a hull edge
// longer than r are reported.
func DetectHoles(ldel *PlanarGraph, r float64) *HoleSet {
	hs, _ := detectHoles(ldel, r, nil, nil)
	return hs
}

func detectHoles(ldel *PlanarGraph, r float64, excluded map[udg.NodeID]bool, prev *HoleSet) (*HoleSet, int) {
	hs := &HoleSet{NodeHoles: make(map[udg.NodeID][]int)}
	var prevByRing map[string]*Hole
	if prev != nil {
		prevByRing = make(map[string]*Hole, len(prev.Holes))
		for _, h := range prev.Holes {
			prevByRing[ringKey(h.Ring, h.Outer)] = h
		}
	}
	reused := 0
	add := func(cycle []int32, outer bool) {
		ring := nodeIDs(cycle)
		if old, ok := prevByRing[ringKey(ring, outer)]; ok {
			h := *old // geometry slices are immutable once built: share them
			h.ID = len(hs.Holes)
			hs.Holes = append(hs.Holes, &h)
			reused++
			return
		}
		hs.addHole(ldel, ring, outer)
	}

	faces := ldel.Faces()
	outer := ldel.OuterFaceIndex(&faces)
	for i := 0; i < faces.Rows(); i++ {
		cycle := faces.Row(i)
		if i == outer {
			hs.OuterBoundary = nodeIDs(cycle)
			continue
		}
		if excluded != nil && ldel.cycleArea(cycle) < 0 {
			// Removing a cut node can disconnect the embedding, giving each
			// component its own clockwise unbounded face; only one is the
			// global outer face, so skip the rest rather than report them as
			// (spurious) inner holes.
			continue
		}
		if DistinctNodes(cycle) >= 4 {
			add(cycle, false)
		}
	}

	// Outer holes: overlay convex hull edges of the (live) point set.
	pts := ldel.Points()
	hullInput := pts
	if len(excluded) > 0 {
		hullInput = make([]geom.Point, 0, len(pts))
		for v := 0; v < ldel.N(); v++ {
			if !excluded[udg.NodeID(v)] {
				hullInput = append(hullInput, pts[v])
			}
		}
	}
	hullPts := geom.ConvexHull(hullInput)
	if len(hullPts) >= 3 {
		// Only hull vertices ever get looked up, so index just those few
		// points instead of building a map over all n nodes. Scanning nodes
		// in ascending order keeps the historical resolution for coincident
		// points (the highest live node ID wins).
		ptIndex := make(map[geom.Point]udg.NodeID, len(hullPts))
		for _, p := range hullPts {
			ptIndex[p] = udg.NodeID(0)
		}
		for v := 0; v < ldel.N(); v++ {
			if excluded[udg.NodeID(v)] {
				continue
			}
			if _, ok := ptIndex[ldel.Point(udg.NodeID(v))]; ok {
				ptIndex[ldel.Point(udg.NodeID(v))] = udg.NodeID(v)
			}
		}
		gbar := ldel.Clone()
		type hedge struct{ a, b udg.NodeID }
		longHull := make(map[hedge]bool)
		for i := range hullPts {
			pa, pb := hullPts[i], hullPts[(i+1)%len(hullPts)]
			a, okA := ptIndex[pa]
			b, okB := ptIndex[pb]
			if !okA || !okB {
				continue
			}
			gbar.AddEdge(a, b)
			if pa.Dist(pb) > r {
				longHull[hedge{a, b}] = true
				longHull[hedge{b, a}] = true
			}
		}
		if len(longHull) > 0 {
			bfaces := gbar.Faces()
			bouter := gbar.OuterFaceIndex(&bfaces)
			for i := 0; i < bfaces.Rows(); i++ {
				cycle := bfaces.Row(i)
				if i == bouter || DistinctNodes(cycle) < 3 {
					continue
				}
				if excluded != nil && gbar.cycleArea(cycle) < 0 {
					continue
				}
				has := false
				n := len(cycle)
				for j := 0; j < n && !has; j++ {
					if longHull[hedge{udg.NodeID(cycle[j]), udg.NodeID(cycle[(j+1)%n])}] {
						has = true
					}
				}
				if has {
					add(cycle, true)
				}
			}
		}
	}

	for i, h := range hs.Holes {
		for _, v := range h.Ring {
			hs.NodeHoles[v] = append(hs.NodeHoles[v], i)
		}
	}
	return hs, reused
}
