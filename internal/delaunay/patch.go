// Topology patching for dynamic membership (churn): a crashed node keeps its
// point but loses its edges. Churn repair clones the pristine LDel², drops
// every dead node's edges here and then derives the router and the hole set
// from the patched graph exactly as a build does (DetectHoles). The CH(V)
// overlay spans only nodes with edges, so the dead set drops out of it by
// construction.

package delaunay

import "hybridroute/internal/udg"

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
