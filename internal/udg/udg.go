// Package udg builds and queries Unit Disk Graphs (Definition 1.1 of the
// paper): the bi-directed graph over a planar point set V containing an edge
// (u, v) whenever ‖uv‖ ≤ r for the communication radius r. The package
// provides a grid-bucketed spatial index so construction is near-linear for
// bounded-density inputs, plus connectivity queries and the Euclidean
// shortest-path oracle used as the competitiveness ground truth d(s, t).
package udg

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"hybridroute/internal/geom"
)

// NodeID indexes a node in the point set. IDs are dense: 0..n-1.
type NodeID int

// Graph is a unit disk graph over a fixed point set. Adjacency is stored in
// a flat CSR (compressed sparse row) layout — two contiguous arrays indexed
// by dense node IDs — so a million-node graph is a handful of allocations;
// the graph is immutable after Build. The construction grid index is
// retained for spatial queries (ForNodesInBox).
type Graph struct {
	pts    []geom.Point
	radius float64
	off    []int32
	dat    []NodeID
	idx    *gridIndex
}

// Build constructs the unit disk graph of pts with communication radius r.
// It panics if r is not positive; an empty point set yields an empty graph.
func Build(pts []geom.Point, r float64) *Graph {
	if r <= 0 {
		panic(fmt.Sprintf("udg: non-positive radius %v", r))
	}
	n := len(pts)
	g := &Graph{
		pts:    append([]geom.Point(nil), pts...),
		radius: r,
		off:    make([]int32, n+1),
	}
	idx := newGridIndex(g.pts, r)
	g.idx = idx
	r2 := r * r
	// Two passes over the same deterministic enumeration: count degrees,
	// then fill rows. Each row lists the 3x3 cell neighbourhood dx-major,
	// then dy, then insertion order within a cell, the order of the
	// historical append-based build. Points are visited cell by cell, so
	// each pass looks up the nine neighbour runs once per occupied cell.
	var runs [9][]int32
	for c := range idx.keys {
		idx.neighborRuns(c, &runs)
		for _, i := range idx.members[idx.start[c]:idx.start[c+1]] {
			p := g.pts[i]
			for _, run := range runs {
				for _, j := range run {
					if j != i && p.Dist2(g.pts[j]) <= r2 {
						g.off[i+1]++
					}
				}
			}
		}
	}
	for i := 1; i <= n; i++ {
		g.off[i] += g.off[i-1]
	}
	g.dat = make([]NodeID, g.off[n])
	for c := range idx.keys {
		idx.neighborRuns(c, &runs)
		for _, i := range idx.members[idx.start[c]:idx.start[c+1]] {
			p, k := g.pts[i], g.off[i]
			for _, run := range runs {
				for _, j := range run {
					if j != i && p.Dist2(g.pts[j]) <= r2 {
						g.dat[k] = NodeID(j)
						k++
					}
				}
			}
		}
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.pts) }

// Radius returns the communication radius used to build the graph.
func (g *Graph) Radius() float64 { return g.radius }

// Point returns the coordinates of node v.
func (g *Graph) Point(v NodeID) geom.Point { return g.pts[v] }

// Points returns the backing point slice; callers must not modify it.
func (g *Graph) Points() []geom.Point { return g.pts }

// Neighbors returns the adjacency list of v as a view into the flat layout;
// callers must not modify it.
func (g *Graph) Neighbors(v NodeID) []NodeID { return g.dat[g.off[v]:g.off[v+1]] }

// Degree returns the number of UDG neighbours of v.
func (g *Graph) Degree(v NodeID) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the maximum degree Δ of the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether (u, v) is an edge, i.e. ‖uv‖ ≤ r and u ≠ v.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	return g.pts[u].Dist2(g.pts[v]) <= g.radius*g.radius
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int { return len(g.dat) / 2 }

// ForNodesInBox calls fn for every node in a grid cell overlapping the
// axis-aligned box [lo, hi] — a superset of the nodes inside the box, each
// reported once, in deterministic (cell-sweep, insertion) order. Callers do
// their own exact filtering.
func (g *Graph) ForNodesInBox(lo, hi geom.Point, fn func(NodeID)) {
	kx0 := int(math.Floor(lo.X / g.idx.cell))
	ky0 := int(math.Floor(lo.Y / g.idx.cell))
	kx1 := int(math.Floor(hi.X / g.idx.cell))
	ky1 := int(math.Floor(hi.Y / g.idx.cell))
	for kx := kx0; kx <= kx1; kx++ {
		for ky := ky0; ky <= ky1; ky++ {
			for _, j := range g.idx.run(kx, ky) {
				fn(NodeID(j))
			}
		}
	}
}

// Connected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	return len(g.Component(0)) == g.N()
}

// Component returns the set of nodes reachable from start via BFS, in
// visitation order.
func (g *Graph) Component(start NodeID) []NodeID {
	seen := make([]bool, g.N())
	queue := []NodeID{start}
	seen[start] = true
	var order []NodeID
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// LargestComponent returns the node set of the largest connected component.
func (g *Graph) LargestComponent() []NodeID {
	seen := make([]bool, g.N())
	var best []NodeID
	for v := 0; v < g.N(); v++ {
		if seen[v] {
			continue
		}
		comp := g.Component(NodeID(v))
		for _, u := range comp {
			seen[u] = true
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}

// HopDistances returns the BFS hop distance from start to every node;
// unreachable nodes get -1.
func (g *Graph) HopDistances(start NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []NodeID{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// KHopNeighborhood returns all nodes within k hops of v (excluding v),
// ordered by discovery. This is the N_k(v) set the distributed LDel^k
// construction gathers in k rounds.
func (g *Graph) KHopNeighborhood(v NodeID, k int) []NodeID {
	seen := make(map[NodeID]bool, 16)
	seen[v] = true
	frontier := []NodeID{v}
	var out []NodeID
	for hop := 0; hop < k; hop++ {
		var next []NodeID
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					out = append(out, w)
				}
			}
		}
		frontier = next
	}
	return out
}

// ShortestPath returns the Euclidean-weight shortest path from s to t in the
// graph, as a node sequence including both endpoints, plus its length. The
// boolean is false when t is unreachable. This is the ground-truth d(s, t)
// used to measure c-competitiveness.
func (g *Graph) ShortestPath(s, t NodeID) ([]NodeID, float64, bool) {
	dist, prev := g.dijkstra(s, t)
	if math.IsInf(dist[t], 1) {
		return nil, 0, false
	}
	var path []NodeID
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

// ShortestDistances returns Euclidean-weight shortest-path distances from s
// to all nodes (+Inf for unreachable).
func (g *Graph) ShortestDistances(s NodeID) []float64 {
	dist, _ := g.dijkstra(s, -1)
	return dist
}

func (g *Graph) dijkstra(s, target NodeID) ([]float64, []NodeID) {
	n := g.N()
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	pq := &nodeHeap{{s, 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeDist)
		if item.d > dist[item.v] {
			continue
		}
		if item.v == target {
			break
		}
		pv := g.pts[item.v]
		for _, w := range g.Neighbors(item.v) {
			nd := item.d + pv.Dist(g.pts[w])
			if nd < dist[w] {
				dist[w] = nd
				prev[w] = item.v
				heap.Push(pq, nodeDist{w, nd})
			}
		}
	}
	return dist, prev
}

type nodeDist struct {
	v NodeID
	d float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// gridIndex buckets points into square cells of side r, so all unit-disk
// neighbours of a point lie in its 3x3 cell neighbourhood. Only occupied
// cells exist: cell c (numbered in order of first occurrence) has key
// keys[c] and holds the point indices members[start[c]:start[c+1]] in
// insertion order, and an open-addressing table with linear probing maps a
// key to its cell. Every array is sized by the point or cell count, never
// by the bounding box, so the index holds O(n) words for any input.
type gridIndex struct {
	cell    float64
	keys    [][2]int
	start   []int32
	members []int32
	slots   []int32 // cell+1 per slot, 0 when empty; len is a power of two
	shift   uint    // 64 - log2(len(slots))
}

func newGridIndex(pts []geom.Point, r float64) *gridIndex {
	idx := &gridIndex{cell: r}
	idx.alloc(len(pts))
	cellOf := make([]int32, len(pts))
	var count []int32
	for i, p := range pts {
		kx, ky := idx.key(p)
		s := idx.probe(kx, ky)
		if idx.slots[s] == 0 {
			idx.keys = append(idx.keys, [2]int{kx, ky})
			idx.slots[s] = int32(len(idx.keys))
			count = append(count, 0)
		}
		c := idx.slots[s] - 1
		cellOf[i] = c
		count[c]++
	}
	// Drop append's spare capacity, and re-size the table by the occupied
	// cells, which bounded-density inputs have several times fewer of than
	// points.
	idx.keys = slices.Clone(idx.keys)
	idx.alloc(len(idx.keys))
	for c, k := range idx.keys {
		idx.slots[idx.probe(k[0], k[1])] = int32(c) + 1
	}
	idx.start = make([]int32, len(idx.keys)+1)
	for c, k := range count {
		idx.start[c+1] = idx.start[c] + k
	}
	copy(count, idx.start) // each cell's write cursor
	idx.members = make([]int32, len(pts))
	for i, c := range cellOf {
		idx.members[count[c]] = int32(i)
		count[c]++
	}
	return idx
}

// alloc gives the table at least twice as many slots as entries, empty.
func (idx *gridIndex) alloc(entries int) {
	bits := uint(1)
	for 1<<bits < 2*entries {
		bits++
	}
	idx.slots = make([]int32, 1<<bits)
	idx.shift = 64 - bits
}

func (idx *gridIndex) key(p geom.Point) (int, int) {
	return int(math.Floor(p.X / idx.cell)), int(math.Floor(p.Y / idx.cell))
}

// probe returns the slot holding key (kx, ky), or the empty slot where it
// would go.
func (idx *gridIndex) probe(kx, ky int) uint64 {
	mask := uint64(len(idx.slots) - 1)
	s := ((uint64(kx)*0x9e3779b97f4a7c15 ^ uint64(ky)) * 0xbf58476d1ce4e5b9) >> idx.shift
	for ; ; s = (s + 1) & mask {
		c := idx.slots[s]
		if c == 0 {
			return s
		}
		if k := idx.keys[c-1]; k[0] == kx && k[1] == ky {
			return s
		}
	}
}

// run returns the point indices in cell (kx, ky), in insertion order.
func (idx *gridIndex) run(kx, ky int) []int32 {
	c := idx.slots[idx.probe(kx, ky)] - 1
	if c < 0 {
		return nil
	}
	return idx.members[idx.start[c]:idx.start[c+1]]
}

// neighborRuns loads the runs of cell c's 3x3 neighbourhood, dx-major.
func (idx *gridIndex) neighborRuns(c int, runs *[9][]int32) {
	k := idx.keys[c]
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			runs[3*(dx+1)+dy+1] = idx.run(k[0]+dx, k[1]+dy)
		}
	}
}
