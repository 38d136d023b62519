package delaunay

import (
	"slices"

	"hybridroute/internal/mem"
	"hybridroute/internal/udg"
)

// DistinctNodes returns the number of distinct nodes on a face boundary
// cycle.
func DistinctNodes(cycle []int32) int {
	// Faces are overwhelmingly triangles and quads; a quadratic scan beats a
	// map allocation until cycles get long (hole rings).
	if len(cycle) <= 12 {
		n := 0
		for i, v := range cycle {
			dup := false
			for j := 0; j < i; j++ {
				if cycle[j] == v {
					dup = true
					break
				}
			}
			if !dup {
				n++
			}
		}
		return n
	}
	set := make(map[int32]bool, len(cycle))
	for _, v := range cycle {
		set[v] = true
	}
	return len(set)
}

// cycleArea returns the signed area of a face's boundary walk. The shoelace
// sum replicates geom.PolygonArea's operation order exactly (same additions
// in the same sequence) so the result is bit-identical without materializing
// the polygon.
func (g *PlanarGraph) cycleArea(cycle []int32) float64 {
	n := len(cycle)
	sum := 0.0
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += g.pts[cycle[i]].Cross(g.pts[cycle[j]])
	}
	return sum / 2
}

// nodeIDs returns a private copy of a face boundary cycle as node IDs, so
// whatever keeps it does not pin the whole face table.
func nodeIDs(cycle []int32) []udg.NodeID {
	out := make([]udg.NodeID, len(cycle))
	for i, v := range cycle {
		out[i] = udg.NodeID(v)
	}
	return out
}

// Faces enumerates all faces of the planar embedding using the rotation
// system: from the directed edge (u, v), the next boundary edge is (v, w)
// where w precedes u in the counterclockwise rotation of v. With this rule
// every bounded face is traced counterclockwise (interior to the left, so
// positive area) and the outer face clockwise. Every directed edge lies on
// exactly one face.
//
// The result is one flat table: row i is face i's boundary walk as node IDs,
// which may repeat nodes at cut vertices. The walks partition the directed
// edges, so the table is two allocations of known size rather than one
// growing slice per face. Directed edges are identified by their dense
// position in the CSR layout of the rotations, so the visited set is a flat
// []bool, and finding the predecessor of u in v's rotation also yields the
// next directed-edge index for free. Enumeration order (node ascending,
// rotation order within each node) matches the historical map-based
// implementation exactly.
func (g *PlanarGraph) Faces() mem.CSR[int32] {
	faces, _, _ := g.faces(nil)
	return faces
}

// FaceAdjacency is a face table with the adjacency a walk through it needs.
// A slot is a position of the table: slot p of row f is the directed edge
// from Faces.Dat[p] to the next node of the row, and row f lies to its left.
type FaceAdjacency struct {
	Faces mem.CSR[int32]
	// Twin is aligned with Faces.Dat: the slot of each slot's reversed edge,
	// which lies in the row on the other side of the edge. Twin[Twin[p]] = p.
	Twin []int32
	// Anchor holds, per node, one slot leaving the node, in a three-slot row
	// when the node has one; -1 for a node without edges.
	Anchor []int32
}

// adjacency is Faces plus, for every slot, the slot of its reversed edge
// and, for every node, one slot leaving it. The enumeration already finds
// u's position in v's rotation for every directed edge u→v it walks; that
// position is the reversed edge's CSR index, which a slot-of-index array
// filled on the same pass turns into its slot, so the adjacency costs one
// int32 per slot and per node. It also returns the slots of the given edges
// as faces does.
func (g *PlanarGraph) adjacency(edges [][2]udg.NodeID) (FaceAdjacency, []int32) {
	var fa FaceAdjacency
	var slots []int32
	fa.Faces, fa.Twin, slots = g.faces(edges)
	fa.Anchor = make([]int32, g.N())
	for v := range fa.Anchor {
		fa.Anchor[v] = -1
	}
	// Three-slot rows first, then the rest: each node keeps the first slot
	// leaving it, in row order, of the first pass that has one.
	for _, tri := range []bool{true, false} {
		for f := 0; f < fa.Faces.Rows(); f++ {
			lo, hi := fa.Faces.Off[f], fa.Faces.Off[f+1]
			if tri && hi-lo != 3 {
				continue
			}
			for p := lo; p < hi; p++ {
				if v := fa.Faces.Dat[p]; fa.Anchor[v] < 0 {
					fa.Anchor[v] = p
				}
			}
		}
	}
	return fa, slots
}

// faces enumerates the face table and the twin of every slot. It also
// returns the slots of the given edges, which must be edges of g: for each,
// the slot of e[0]→e[1], then that of e[1]→e[0].
func (g *PlanarGraph) faces(edges [][2]udg.NodeID) (faces mem.CSR[int32], twin, slots []int32) {
	off, dat := g.flatRows()
	visited := make([]bool, len(dat))
	faces = mem.CSR[int32]{Off: []int32{0}, Dat: make([]int32, 0, len(dat))}
	// slotOf maps a directed edge's CSR index to its slot; twin first maps a
	// slot to the CSR index of its reversed edge.
	slotOf := make([]int32, len(dat))
	twin = make([]int32, 0, len(dat))

	for u := 0; u < g.N(); u++ {
		for k := int(off[u]); k < int(off[u+1]); k++ {
			if visited[k] {
				continue
			}
			cu, ck := udg.NodeID(u), k
			for !visited[ck] {
				visited[ck] = true
				slotOf[ck] = int32(len(faces.Dat))
				faces.Dat = append(faces.Dat, int32(cu))
				cv := dat[ck]
				nbrs := dat[off[cv]:off[cv+1]]
				pi := -1
				for i, w := range nbrs {
					if w == cu {
						pi = i
						break
					}
				}
				if pi < 0 {
					panic("delaunay: rotation lookup for absent edge")
				}
				twin = append(twin, off[cv]+int32(pi))
				ni := (pi - 1 + len(nbrs)) % len(nbrs)
				cu, ck = cv, int(off[cv])+ni
			}
			faces.Off = append(faces.Off, int32(len(faces.Dat)))
		}
	}
	for p, k := range twin {
		twin[p] = slotOf[k]
	}
	for _, e := range edges {
		p := slotOf[off[e[0]]+int32(slices.Index(dat[off[e[0]]:off[e[0]+1]], e[1]))]
		slots = append(slots, p, twin[p])
	}
	return faces, twin, slots
}

// OuterFaceIndex returns the index of the unbounded face in faces: the one
// with the most negative signed area. Returns -1 for an empty graph.
func (g *PlanarGraph) OuterFaceIndex(faces *mem.CSR[int32]) int {
	best, idx := 0.0, -1
	for i := 0; i < faces.Rows(); i++ {
		if a := g.cycleArea(faces.Row(i)); a < best {
			best, idx = a, i
		}
	}
	return idx
}
