package routing

import (
	"math"

	"hybridroute/internal/geom"
)

// innerBounds ties what lies inside a face without sharing an edge with it to
// that face. Churn repair builds routers over graphs whose crashed nodes have
// no edges, and a ring of crashed nodes can cut off an island: the island's
// outline row and an edgeless node lie inside a face of the rest, which the
// walk never reaches through that face's own edges. A face and the outlines
// it holds form one region of the walk.
type innerBounds struct {
	holder   map[int32]int32   // island outline row → row of the face holding the island
	attached map[int32][]int32 // holding row → the outline rows it holds
	// nodeHolder maps a node of an island to the row holding the island,
	// and an edgeless node inside a face to that face's row.
	nodeHolder map[int32]int32
	onEdge     map[int32]int32 // edgeless node on an edge → that edge's slot
}

// holderOf returns the row holding node v's island, or the face holding
// edgeless v; -1 when v is in the main component or nothing holds it.
func (ib *innerBounds) holderOf(v int32) int32 {
	if h, ok := ib.nodeHolder[v]; ok {
		return h
	}
	return -1
}

// head returns the row that stands for row f's region: the face holding f
// when f is an island's outline, else f.
func (ib *innerBounds) head(f int32) int32 {
	if h, ok := ib.holder[f]; ok {
		return h
	}
	return f
}

// newInnerBounds finds the components of the augmented graph; when there is
// more than one, or a node without edges, it attaches each inner boundary
// (an island's outline, or an edgeless node) to the face holding it: the
// smallest-area row of another component whose polygon holds one of its
// points. An edgeless node on an edge keeps that edge instead. The search
// costs O(inner boundaries × slots) once; a connected graph pays only the
// component pass.
func (r *Router) newInnerBounds() *innerBounds {
	n := r.g.N()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for f := 0; f < r.faces.Rows(); f++ {
		row := r.faces.Row(f)
		a := find(row[0])
		for _, v := range row[1:] {
			if b := find(v); b != a {
				parent[b] = a
			}
		}
	}
	main := int32(-1)
	if r.outer >= 0 {
		main = find(r.faces.Dat[r.faces.Off[r.outer]])
	}

	// An inner boundary and the point that locates it.
	type probe struct {
		p        geom.Point
		skip     int32 // the island's component, whose rows cannot hold it; -1 for a node
		node     int32 // the edgeless node, or -1 for an island
		outline  int32 // the island's outline row
		best     int32
		bestArea float64
		edge     int32
	}
	var probes []probe
	for v := 0; v < n; v++ {
		if r.anchor[v] < 0 {
			probes = append(probes, probe{p: r.g.Point(NodeID(v)), skip: -1, node: int32(v), outline: -1})
		}
	}
	// The outline of an island is its most negative-area row: traced
	// clockwise around the island, as the outer row is around the rest.
	outline := map[int32]int32{}
	area := make(map[int32]float64)
	var poly []geom.Point
	for f := 0; f < r.faces.Rows(); f++ {
		c := find(r.faces.Dat[r.faces.Off[f]])
		if c == main {
			continue
		}
		poly = r.rowPoly(int32(f), poly)
		a := geom.PolygonArea(poly)
		area[int32(f)] = a
		if o, ok := outline[c]; !ok || a < area[o] {
			outline[c] = int32(f)
		}
	}
	if len(probes) == 0 && len(outline) == 0 {
		return &innerBounds{} // nothing to attach: every lookup misses
	}
	for c, o := range outline {
		probes = append(probes, probe{p: r.point(r.faces.Dat[r.faces.Off[o]]), skip: c, node: -1, outline: o})
	}
	for i := range probes {
		probes[i].best, probes[i].edge, probes[i].bestArea = -1, -1, math.Inf(1)
	}

	for f := 0; f < r.faces.Rows(); f++ {
		lo := r.faces.Off[f]
		poly = r.rowPoly(int32(f), poly)
		box := geom.BoundingBox(poly)
		c := find(r.faces.Dat[lo])
		a := -1.0
		for i := range probes {
			pr := &probes[i]
			if pr.skip == c || pr.edge >= 0 || !box.Contains(pr.p) {
				continue
			}
			if pr.node >= 0 {
				for j := range poly {
					if geom.OnSegment(pr.p, geom.Seg(poly[j], poly[(j+1)%len(poly)])) {
						pr.edge = lo + int32(j)
						break
					}
				}
				if pr.edge >= 0 {
					continue
				}
			}
			// PointInPolygon counts the boundary as inside; an edgeless node
			// on the boundary took the edge above.
			if !geom.PointInPolygon(pr.p, poly) {
				continue
			}
			if a < 0 {
				a = math.Abs(geom.PolygonArea(poly))
			}
			if a < pr.bestArea {
				pr.best, pr.bestArea = int32(f), a
			}
		}
	}

	ib := &innerBounds{
		holder:     map[int32]int32{},
		attached:   map[int32][]int32{},
		nodeHolder: map[int32]int32{},
		onEdge:     map[int32]int32{},
	}
	for _, pr := range probes {
		if pr.best < 0 {
			// Only the outer row holds a point outside the hull of the nodes
			// with edges, such as a crashed hull corner.
			pr.best = int32(r.outer)
		}
		switch {
		case pr.node >= 0 && pr.edge >= 0:
			ib.onEdge[pr.node] = pr.edge
		case pr.node >= 0 && pr.best >= 0:
			ib.nodeHolder[pr.node] = pr.best
		case pr.node < 0 && pr.best >= 0:
			ib.holder[pr.outline] = pr.best
			ib.attached[pr.best] = append(ib.attached[pr.best], pr.outline)
			for v := 0; v < n; v++ {
				if r.anchor[v] >= 0 && find(int32(v)) == pr.skip {
					ib.nodeHolder[int32(v)] = pr.best
				}
			}
		}
	}
	return ib
}

// rowPoly returns row f's polygon in buf.
func (r *Router) rowPoly(f int32, buf []geom.Point) []geom.Point {
	buf = buf[:0]
	for _, v := range r.faces.Row(int(f)) {
		buf = append(buf, r.point(v))
	}
	return buf
}
