package delaunay

import (
	"slices"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// PlanarGraph is an embedded planar graph over a point set: adjacency lists
// sorted counterclockwise by angle (the rotation system), which is exactly
// the structure a node of the ad hoc network can compute locally from the
// coordinates of its neighbours.
//
// Storage is a flat CSR (compressed sparse row) layout: the frozen rotations
// live in two contiguous arrays (off/dat) indexed by dense node IDs, so a
// million-node graph costs two allocations instead of a million row slices.
// Mutation — the hull-edge overlay of the Definition 2.5 map and edge removal
// during churn repair — goes through a lazy copy-on-write row overlay (mut): a
// non-nil mut row overrides the frozen CSR row for that node, and Clone
// shares the frozen arrays while deep-copying only the overridden rows.
// A frozen row is never written after construction.
type PlanarGraph struct {
	pts []geom.Point
	off []int32
	dat []udg.NodeID
	mut [][]udg.NodeID // copy-on-write row overrides; nil while frozen
}

// NewPlanarGraph builds a planar graph from points and undirected edges; the
// embedding is the straight-line embedding, with each rotation sorted CCW.
func NewPlanarGraph(pts []geom.Point, edges [][2]int) *PlanarGraph {
	n := len(pts)
	g := &PlanarGraph{pts: pts, off: make([]int32, n+1)}
	for _, e := range edges {
		g.off[e[0]+1]++
		g.off[e[1]+1]++
	}
	for i := 1; i <= n; i++ {
		g.off[i] += g.off[i-1]
	}
	g.dat = make([]udg.NodeID, g.off[n])
	cur := make([]int32, n)
	copy(cur, g.off[:n])
	for _, e := range edges {
		g.dat[cur[e[0]]] = udg.NodeID(e[1])
		cur[e[0]]++
		g.dat[cur[e[1]]] = udg.NodeID(e[0])
		cur[e[1]]++
	}
	g.sortRotations()
	return g
}

// angNbr pairs a neighbour with its precomputed rotation angle so row sorting
// computes each atan2 once instead of once per comparison.
type angNbr struct {
	a  float64
	id udg.NodeID
}

// sortRotations sorts every frozen row CCW by (angle, id) and removes
// duplicate parallel edges, compacting the CSR arrays in place. The
// comparison order — angle ascending, ties broken by node ID — is a total
// order, so the insertion sort produces exactly the sequence the previous
// sort.Slice-based implementation did.
func (g *PlanarGraph) sortRotations() {
	var scratch []angNbr
	n := g.N()
	for v := 0; v < n; v++ {
		row := g.dat[g.off[v]:g.off[v+1]]
		if len(row) < 2 {
			continue
		}
		pv := g.pts[v]
		scratch = scratch[:0]
		for _, w := range row {
			scratch = append(scratch, angNbr{g.pts[w].Sub(pv).Angle(), w})
		}
		for i := 1; i < len(scratch); i++ {
			x := scratch[i]
			j := i - 1
			for j >= 0 && (x.a < scratch[j].a || (x.a == scratch[j].a && x.id < scratch[j].id)) {
				scratch[j+1] = scratch[j]
				j--
			}
			scratch[j+1] = x
		}
		for i := range scratch {
			row[i] = scratch[i].id
		}
	}
	// Deduplicate parallel edges if any slipped in; sorted rows put
	// duplicates adjacent, and the compacted write cursor w never overtakes
	// the read cursor, so the pass is safe in place.
	w := int32(0)
	for v := 0; v < n; v++ {
		rs, re := g.off[v], g.off[v+1]
		ns := w
		for i := rs; i < re; i++ {
			if w == ns || g.dat[i] != g.dat[w-1] {
				g.dat[w] = g.dat[i]
				w++
			}
		}
		g.off[v] = ns
	}
	g.off[n] = w
	g.dat = g.dat[:w]
}

// row returns the current rotation of v: the copy-on-write override when one
// exists, otherwise a view into the frozen CSR arrays.
func (g *PlanarGraph) row(v udg.NodeID) []udg.NodeID {
	if g.mut != nil {
		if r := g.mut[v]; r != nil {
			return r
		}
	}
	return g.dat[g.off[v]:g.off[v+1]]
}

// materialize gives v a private mutable copy of its rotation (idempotent) and
// returns it.
func (g *PlanarGraph) materialize(v udg.NodeID) []udg.NodeID {
	if g.mut == nil {
		g.mut = make([][]udg.NodeID, g.N())
	}
	if g.mut[v] == nil {
		frozen := g.dat[g.off[v]:g.off[v+1]]
		g.mut[v] = append(make([]udg.NodeID, 0, len(frozen)+2), frozen...)
	}
	return g.mut[v]
}

// flatRows returns the graph's rotations as CSR arrays: the frozen arrays
// themselves when no row has been overridden, otherwise a freshly merged
// copy. Face enumeration uses the result to index directed edges densely.
func (g *PlanarGraph) flatRows() ([]int32, []udg.NodeID) {
	if g.mut == nil {
		return g.off, g.dat
	}
	n := g.N()
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(len(g.row(udg.NodeID(v))))
	}
	dat := make([]udg.NodeID, off[n])
	for v := 0; v < n; v++ {
		copy(dat[off[v]:off[v+1]], g.row(udg.NodeID(v)))
	}
	return off, dat
}

// N returns the number of nodes.
func (g *PlanarGraph) N() int { return len(g.pts) }

// Point returns the coordinates of node v.
func (g *PlanarGraph) Point(v udg.NodeID) geom.Point { return g.pts[v] }

// Points returns the backing point slice; callers must not modify it.
func (g *PlanarGraph) Points() []geom.Point { return g.pts }

// Neighbors returns the CCW-sorted rotation of v; callers must not modify it.
func (g *PlanarGraph) Neighbors(v udg.NodeID) []udg.NodeID { return g.row(v) }

// Degree returns the degree of v.
func (g *PlanarGraph) Degree(v udg.NodeID) int { return len(g.row(v)) }

// HasEdge reports whether the undirected edge (u, v) is present.
func (g *PlanarGraph) HasEdge(u, v udg.NodeID) bool {
	for _, w := range g.row(u) {
		if w == v {
			return true
		}
	}
	return false
}

// EdgeCount returns the number of undirected edges.
func (g *PlanarGraph) EdgeCount() int {
	if g.mut == nil {
		return len(g.dat) / 2
	}
	total := 0
	for v := 0; v < g.N(); v++ {
		total += len(g.row(udg.NodeID(v)))
	}
	return total / 2
}

// Edges returns each undirected edge once with a < b.
func (g *PlanarGraph) Edges() [][2]int {
	var out [][2]int
	for v := 0; v < g.N(); v++ {
		for _, w := range g.row(udg.NodeID(v)) {
			if udg.NodeID(v) < w {
				out = append(out, [2]int{v, int(w)})
			}
		}
	}
	return out
}

// AddEdge inserts the undirected edge (u, v) if absent, each end at its
// place in the other's rotation by the (angle, id) order sortRotations
// keeps. Used to overlay convex hull edges (Definition 2.5). Two directions
// that differ can tie on angle, and only Orient orders those.
func (g *PlanarGraph) AddEdge(u, v udg.NodeID) {
	if u == v || g.HasEdge(u, v) {
		return
	}
	g.insertNeighbor(u, v)
	g.insertNeighbor(v, u)
}

// insertNeighbor inserts w into v's rotation before the first neighbour
// that follows it by (angle, id).
func (g *PlanarGraph) insertNeighbor(v, w udg.NodeID) {
	pv := g.pts[v]
	a := g.pts[w].Sub(pv).Angle()
	row := g.materialize(v)
	i := 0
	for ; i < len(row); i++ {
		if b := g.pts[row[i]].Sub(pv).Angle(); a < b || a == b && w < row[i] {
			break
		}
	}
	g.mut[v] = slices.Insert(row, i, w)
}

// Clone returns a copy of the graph that shares the frozen CSR arrays (which
// are immutable after construction) and deep-copies only the copy-on-write
// row overrides, so cloning a million-node graph before a churn patch is
// O(overridden rows), not O(E).
func (g *PlanarGraph) Clone() *PlanarGraph {
	c := &PlanarGraph{pts: g.pts, off: g.off, dat: g.dat}
	if g.mut != nil {
		c.mut = make([][]udg.NodeID, len(g.mut))
		for v, r := range g.mut {
			if r != nil {
				c.mut[v] = append(make([]udg.NodeID, 0, len(r)), r...)
			}
		}
	}
	return c
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *PlanarGraph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []udg.NodeID{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, w := range g.row(v) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return count == g.N()
}
