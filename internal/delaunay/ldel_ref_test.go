package delaunay

import (
	"sort"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// LDelK computes the k-localized Delaunay graph LDel^k(V) of the unit disk
// graph g (Definition 2.3): the union of
//
//  1. all edges of k-localized triangles — triangles (u, v, w) with all edge
//     lengths ≤ r whose circumcircle contains no node reachable within k
//     hops of u, v, or w in UDG(V), and
//  2. all Gabriel edges — UDG edges (u, v) whose diametral circle is empty.
//
// For k ≥ 2 the result is planar (Li, Călinescu, Wan). The computation is
// node-local given k-hop neighbourhood knowledge, which is what the
// distributed construction gathers in k communication rounds. It evaluates
// the definition directly, materializing every k-hop neighbourhood, and is
// the oracle LDel2Fast and BuildLDel2Distributed are held to.
func LDelK(g *udg.Graph, k int) *PlanarGraph {
	n := g.N()
	r := g.Radius()
	r2 := r * r

	// Precompute k-hop neighbourhoods.
	khop := make([][]udg.NodeID, n)
	for v := 0; v < n; v++ {
		khop[v] = g.KHopNeighborhood(udg.NodeID(v), k)
	}

	edgeSet := make(map[[2]int]bool)
	addEdge := func(a, b udg.NodeID) {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		edgeSet[[2]int{x, y}] = true
	}

	// Gabriel edges: since every point strictly inside the diametral circle
	// of (u, v) is within distance ‖uv‖ ≤ r of u, checking u's UDG
	// neighbourhood suffices.
	for u := 0; u < n; u++ {
		pu := g.Point(udg.NodeID(u))
		for _, v := range g.Neighbors(udg.NodeID(u)) {
			if int(v) < u {
				continue
			}
			pv := g.Point(v)
			gabriel := true
			for _, w := range g.Neighbors(udg.NodeID(u)) {
				if w == v {
					continue
				}
				if geom.InDiametralCircle(pu, pv, g.Point(w)) {
					gabriel = false
					break
				}
			}
			if gabriel {
				addEdge(udg.NodeID(u), v)
			}
		}
	}

	// k-localized triangles.
	for u := 0; u < n; u++ {
		pu := g.Point(udg.NodeID(u))
		nbrs := g.Neighbors(udg.NodeID(u))
		for i := 0; i < len(nbrs); i++ {
			v := nbrs[i]
			if int(v) < u {
				continue // process each triangle from its minimum vertex
			}
			for j := i + 1; j < len(nbrs); j++ {
				w := nbrs[j]
				if int(w) < u {
					continue
				}
				pv, pw := g.Point(v), g.Point(w)
				if pv.Dist2(pw) > r2 {
					continue // edge vw exceeds the transmission range
				}
				if geom.Orient(pu, pv, pw) == geom.Collinear {
					continue
				}
				if localizedDelaunayTriangle(g, khop, udg.NodeID(u), v, w) {
					addEdge(udg.NodeID(u), v)
					addEdge(v, w)
					addEdge(udg.NodeID(u), w)
				}
			}
		}
	}

	edges := make([][2]int, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return NewPlanarGraph(g.Points(), edges)
}

// localizedDelaunayTriangle checks Definition 2.2(2): the circumcircle of
// (u, v, w) contains no node within k hops of u, v or w.
func localizedDelaunayTriangle(g *udg.Graph, khop [][]udg.NodeID, u, v, w udg.NodeID) bool {
	pu, pv, pw := g.Point(u), g.Point(v), g.Point(w)
	checked := map[udg.NodeID]bool{u: true, v: true, w: true}
	for _, base := range []udg.NodeID{u, v, w} {
		for _, x := range khop[base] {
			if checked[x] {
				continue
			}
			checked[x] = true
			if geom.InCircle(pu, pv, pw, g.Point(x)) {
				return false
			}
		}
	}
	return true
}
