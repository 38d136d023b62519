// Spatial index over the faces of the hull-augmented embedding. The corridor
// walk used to test the query segment against every face — O(#faces) per
// query, the dominant cost at n=10⁶ where the triangulation has ~2n faces.
// The grid registers each face in every cell its bounding box overlaps.
// Querying walks the supercover of the segment: column by column, the rows
// the segment crosses within that column, so each cell the segment touches is
// visited exactly once. Every cell boundary the walk computes is widened by a
// slack far above its rounding error, so the walk yields a superset of the
// faces whose boundary meets the segment. Candidates that never touch the
// segment contribute no entry parameters, so the corridor that comes out is
// identical to the full scan's — only cheaper.

package routing

import (
	"math"
	"sync"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
)

// faceGridMaxSide caps the grid resolution per axis; beyond it cells just
// hold a few more faces each.
const faceGridMaxSide = 1024

type faceGrid struct {
	x0, y0 float64
	cw, ch float64 // cell width/height
	nx, ny int
	// slack widens every boundary the walk computes: 10⁻⁹ of the grid's
	// coordinate magnitude, far above the rounding of a cell boundary or of
	// a point on the segment.
	slack float64
	cells mem.CSR[int32] // face indices per cell, row = iy*nx + ix
}

// newFaceGrid indexes every non-outer face of the table; cycles name nodes
// of g.
func newFaceGrid(g *delaunay.PlanarGraph, faces *mem.CSR[int32], outer int) *faceGrid {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	nFaces := 0
	for fi := 0; fi < faces.Rows(); fi++ {
		if fi == outer {
			continue
		}
		nFaces++
		for _, v := range faces.Row(fi) {
			p := g.Point(NodeID(v))
			minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
			maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
		}
	}
	if nFaces == 0 {
		return nil
	}
	w, h := maxX-minX, maxY-minY
	cell := math.Sqrt((w + 1e-9) * (h + 1e-9) / float64(nFaces))
	if !(cell > 0) {
		cell = 1
	}
	nx := clampInt(int(w/cell)+1, 1, faceGridMaxSide)
	ny := clampInt(int(h/cell)+1, 1, faceGridMaxSide)
	gr := &faceGrid{x0: minX, y0: minY, nx: nx, ny: ny}
	gr.cw = w / float64(nx)
	gr.ch = h / float64(ny)
	if !(gr.cw > 0) {
		gr.cw = 1
	}
	if !(gr.ch > 0) {
		gr.ch = 1
	}
	gr.slack = 1e-9 * (1 + math.Abs(gr.x0) + math.Abs(gr.y0) + float64(nx)*gr.cw + float64(ny)*gr.ch)

	b := mem.NewCSRBuilder[int32](nx * ny)
	forBBoxCells := func(cycle []int32, emit func(cell int)) {
		bx0, by0 := math.Inf(1), math.Inf(1)
		bx1, by1 := math.Inf(-1), math.Inf(-1)
		for _, v := range cycle {
			p := g.Point(NodeID(v))
			bx0, by0 = math.Min(bx0, p.X), math.Min(by0, p.Y)
			bx1, by1 = math.Max(bx1, p.X), math.Max(by1, p.Y)
		}
		for iy := gr.row(by0); iy <= gr.row(by1); iy++ {
			for ix := gr.col(bx0); ix <= gr.col(bx1); ix++ {
				emit(iy*nx + ix)
			}
		}
	}
	for fi := 0; fi < faces.Rows(); fi++ {
		if fi != outer {
			forBBoxCells(faces.Row(fi), func(c int) { b.Count(c) })
		}
	}
	b.Seal()
	for fi := 0; fi < faces.Rows(); fi++ {
		if fi != outer {
			fi32 := int32(fi)
			forBBoxCells(faces.Row(fi), func(c int) { b.Put(c, fi32) })
		}
	}
	gr.cells = b.Done()
	return gr
}

// col and row map a coordinate to its cell column and row, clamped to the
// grid; both are monotone, so a face registered from the cell of its bounding
// box's minimum to that of its maximum sits in the cell of every point of
// that box.
func (g *faceGrid) col(x float64) int { return clampInt(int((x-g.x0)/g.cw), 0, g.nx-1) }
func (g *faceGrid) row(y float64) int { return clampInt(int((y-g.y0)/g.ch), 0, g.ny-1) }

// candidates appends to dst, once each, every face registered in a cell that
// the segment touches. It walks the columns from that of L's minimum x to
// that of its maximum; in each it visits the rows spanned by L's y-range over
// the column's x-interval, clipped to L. Both ranges are widened by the
// slack, so rounding at a cell boundary cannot drop a cell, and since the
// columns are disjoint no cell is visited twice. The result is a superset of
// all faces whose boundary meets L.
func (g *faceGrid) candidates(L geom.Segment, faceSeen *mem.Marks, dst []int32) []int32 {
	faceSeen.Reset()
	a, b := L.A, L.B
	if a.X > b.X {
		a, b = b, a
	}
	s := g.slack
	dx, dy := b.X-a.X, b.Y-a.Y
	for ix, last := g.col(a.X-s), g.col(b.X+s); ix <= last; ix++ {
		lo, hi := a.X, b.X
		if ix > 0 {
			lo = math.Max(lo, g.x0+float64(ix)*g.cw-s)
		}
		if ix < g.nx-1 {
			hi = math.Min(hi, g.x0+float64(ix+1)*g.cw+s)
		}
		y0, y1 := a.Y, b.Y // a vertical L spans its whole y-range
		if dx > 0 {
			y0, y1 = a.Y+clamp01((lo-a.X)/dx)*dy, a.Y+clamp01((hi-a.X)/dx)*dy
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		for iy, top := g.row(y0-s), g.row(y1+s); iy <= top; iy++ {
			for _, fi := range g.cells.Row(iy*g.nx + ix) {
				if !faceSeen.Has(int(fi)) {
					faceSeen.Set(int(fi))
					dst = append(dst, fi)
				}
			}
		}
	}
	return dst
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// corridorScratch is the working memory of one Chew call, pooled on the
// Router because engine workers run corridors concurrently. The n-sized
// nodeSeen and every buffer live here rather than on the Router, so a built
// Router carries no per-query state.
type corridorScratch struct {
	faceSeen *mem.Marks
	nodeSeen *mem.Marks // chain membership, then the blocking face's vertices
	cand     []int32
	poly     []geom.Point
	sides    []geom.Orientation
	params   []float64
	entries  []corridorEntry
	faces    []int
	verts    []NodeID
	keys     []float64
	left     []NodeID
	right    []NodeID
}

func (r *Router) getScratch() *corridorScratch {
	sc := r.scratch.Get().(*corridorScratch)
	return sc
}

func (r *Router) putScratch(sc *corridorScratch) { r.scratch.Put(sc) }

func newScratchPool(nFaces, nNodes int) *sync.Pool {
	return &sync.Pool{New: func() interface{} {
		return &corridorScratch{
			faceSeen: mem.NewMarks(nFaces),
			nodeSeen: mem.NewMarks(nNodes),
		}
	}}
}
