package delaunay

import (
	"math"

	"hybridroute/internal/mem"
	"hybridroute/internal/udg"
)

// ShortestPath returns the Euclidean-weight shortest path between s and t in
// the planar graph, including both endpoints, plus its length; ok is false
// when t is unreachable.
func (g *PlanarGraph) ShortestPath(s, t udg.NodeID) ([]udg.NodeID, float64, bool) {
	return g.shortestPath(s, t, nil, nil)
}

// ShortestPathAvoiding is ShortestPath restricted to the subgraph without the
// nodes in avoid (interior vertices only — s and t themselves are always
// allowed). The reliable transport uses it to replan payload delivery around
// hops that stopped acknowledging.
func (g *PlanarGraph) ShortestPathAvoiding(s, t udg.NodeID, avoid map[udg.NodeID]bool) ([]udg.NodeID, float64, bool) {
	if len(avoid) == 0 {
		return g.shortestPath(s, t, nil, nil)
	}
	return g.shortestPath(s, t, avoid, nil)
}

// EdgeWeight scales the Euclidean length of the directed edge (u, v) in a
// weighted shortest-path search. A multiplier that is not finite and positive
// removes the edge from the search — so ShortestPathAvoiding is the limit of
// ShortestPathWeighted as an edge's weight goes to +Inf (a link whose
// estimated loss probability p̂ → 1 under an ETX cost 1/(1−p̂)).
type EdgeWeight func(u, v udg.NodeID) float64

// ShortestPathWeighted returns the minimum-cost path between s and t where
// the directed edge (u, v) costs its Euclidean length times weight(u, v),
// plus the path's total cost. A nil weight is the plain Euclidean search.
// The loss-aware route planner uses it with ETX-style multipliers to bias
// payload plans away from links that have been observed dropping messages.
func (g *PlanarGraph) ShortestPathWeighted(s, t udg.NodeID, weight EdgeWeight) ([]udg.NodeID, float64, bool) {
	return g.shortestPath(s, t, nil, weight)
}

func (g *PlanarGraph) shortestPath(s, t udg.NodeID, avoid map[udg.NodeID]bool, weight EdgeWeight) ([]udg.NodeID, float64, bool) {
	n := g.N()
	dist := make([]float64, n)
	prev := make([]udg.NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	var pq mem.Heap[udg.NodeID]
	pq.Push(s, 0)
	for len(pq) > 0 {
		item := pq.Pop()
		if item.D > dist[item.V] {
			continue
		}
		if item.V == t {
			break
		}
		pv := g.Point(item.V)
		for _, w := range g.row(item.V) {
			if avoid[w] && w != t {
				continue
			}
			l := pv.Dist(g.Point(w))
			if weight != nil {
				m := weight(item.V, w)
				if !(m > 0) || math.IsInf(m, 1) {
					continue
				}
				l *= m
			}
			nd := item.D + l
			if nd < dist[w] {
				dist[w] = nd
				prev[w] = item.V
				pq.Push(w, nd)
			}
		}
	}
	if math.IsInf(dist[t], 1) {
		return nil, 0, false
	}
	var path []udg.NodeID
	for v := t; ; v = prev[v] {
		path = append(path, v)
		if v == s {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[t], true
}
