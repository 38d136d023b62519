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
// membership, where a crashed node keeps its point but has no edges. When
// prev is non-nil, any detected hole whose boundary ring is identical to a
// hole of prev reuses that hole's derived geometry instead of recomputing
// it; the second return value counts reused holes. DetectHolesLive(g, r, nil)
// is exactly DetectHoles(g, r).
func DetectHolesLive(ldel *PlanarGraph, r float64, prev *HoleSet) (*HoleSet, int) {
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
		// Removing a cut node can disconnect the embedding, giving each
		// component its own clockwise unbounded face; only one is the global
		// outer face, so both passes skip every face of negative area rather
		// than report the rest as (spurious) holes.
		if ldel.cycleArea(cycle) >= 0 && DistinctNodes(cycle) >= 4 {
			add(cycle, false)
		}
	}

	// Outer holes: the bounded faces of the CH(V) overlay with a hull edge
	// longer than r. Every such edge is one g lacks, since LDel² edges are
	// no longer than r.
	gbar, added := ldel.WithHull()
	type hedge struct{ a, b udg.NodeID }
	longHull := make(map[hedge]bool)
	for _, e := range added {
		if ldel.Point(e[0]).Dist(ldel.Point(e[1])) > r {
			longHull[hedge{e[0], e[1]}] = true
			longHull[hedge{e[1], e[0]}] = true
		}
	}
	if len(longHull) > 0 {
		bfaces := gbar.Faces()
		bouter := gbar.OuterFaceIndex(&bfaces)
		for i := 0; i < bfaces.Rows(); i++ {
			cycle := bfaces.Row(i)
			if i == bouter || DistinctNodes(cycle) < 3 || gbar.cycleArea(cycle) < 0 {
				continue
			}
			n := len(cycle)
			for j := 0; j < n; j++ {
				if longHull[hedge{udg.NodeID(cycle[j]), udg.NodeID(cycle[(j+1)%n])}] {
					add(cycle, true)
					break
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

// DetectHoles finds all radio holes of the planar graph ldel (assumed to be
// LDel²(V) or a planar supergraph of it) for transmission radius r.
//
// Inner holes are bounded faces with ≥ 4 distinct nodes. For outer holes,
// the convex hull CH(V) of the nodes with edges is overlaid (Definition 2.5,
// WithHull) and bounded faces of the combined graph with ≥ 3 nodes
// containing a hull edge longer than r are reported.
func DetectHoles(ldel *PlanarGraph, r float64) *HoleSet {
	hs, _ := DetectHolesLive(ldel, r, nil)
	return hs
}
