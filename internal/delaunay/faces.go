package delaunay

import (
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
	return g.faces(nil)
}

// FaceAdjacency is a face table with the adjacency a walk through it needs.
// A slot is a position of the table: slot p of row f is the directed edge
// from Faces.Dat[p] to the next node of the row, and row f lies to its left.
type FaceAdjacency struct {
	Faces mem.CSR[int32]
	// Across is aligned with Faces.Dat: the row on the other side of each
	// slot's edge, the one that holds the reversed edge.
	Across []int32
	// Anchor holds, per node, one row through the node, a three-slot row
	// when the node has one; -1 for a node without edges.
	Anchor []int32
}

// FacesWithAdjacency is Faces plus, for every slot, the row across its edge
// and, for every node, one row through it. The enumeration already finds
// u's position in v's rotation for every directed edge u→v it walks; that
// position is the reversed edge, so the adjacency costs one int32 per slot
// and per node.
func (g *PlanarGraph) FacesWithAdjacency() FaceAdjacency {
	var fa FaceAdjacency
	fa.Faces = g.faces(&fa.Across)
	fa.Anchor = make([]int32, g.N())
	for v := range fa.Anchor {
		fa.Anchor[v] = -1
	}
	for f := 0; f < fa.Faces.Rows(); f++ {
		tri := fa.Faces.Off[f+1]-fa.Faces.Off[f] == 3
		for _, v := range fa.Faces.Row(f) {
			if a := fa.Anchor[v]; a < 0 || tri && fa.Faces.Off[a+1]-fa.Faces.Off[a] != 3 {
				fa.Anchor[v] = int32(f)
			}
		}
	}
	return fa
}

// faces enumerates the face table; when across is non-nil it also fills
// *across with the row across every slot.
func (g *PlanarGraph) faces(across *[]int32) mem.CSR[int32] {
	off, dat := g.flatRows()
	visited := make([]bool, len(dat))
	faces := mem.CSR[int32]{Off: []int32{0}, Dat: make([]int32, 0, len(dat))}
	// rowOf maps a directed edge's CSR index to its row; twin maps a slot to
	// the CSR index of its reversed edge. Both are filled only when the
	// adjacency is asked for.
	var rowOf, twin []int32
	if across != nil {
		rowOf = make([]int32, len(dat))
		twin = make([]int32, 0, len(dat))
	}

	for u := 0; u < g.N(); u++ {
		for k := int(off[u]); k < int(off[u+1]); k++ {
			if visited[k] {
				continue
			}
			row := int32(faces.Rows())
			cu, ck := udg.NodeID(u), k
			for !visited[ck] {
				visited[ck] = true
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
				if across != nil {
					rowOf[ck] = row
					twin = append(twin, off[cv]+int32(pi))
				}
				ni := (pi - 1 + len(nbrs)) % len(nbrs)
				cu, ck = cv, int(off[cv])+ni
			}
			faces.Off = append(faces.Off, int32(len(faces.Dat)))
		}
	}
	if across != nil {
		for p, k := range twin {
			twin[p] = rowOf[k]
		}
		*across = twin
	}
	return faces
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
