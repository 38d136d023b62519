// Spatial index over the faces of the hull-augmented embedding. The corridor
// walk used to test the query segment against every face — O(#faces) per
// query, the dominant cost at n=10⁶ where the triangulation has ~2n faces.
// The grid registers each face in every cell its bounding box overlaps;
// querying walks the cells along the segment (sampled at half the cell pitch,
// dilated 3×3, which provably covers every cell the segment touches) and
// yields a conservative superset of the faces whose boundary meets the
// segment. Candidates that never touch the segment contribute no entry
// parameters, so the corridor that comes out is identical to the full scan's
// — only cheaper.

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
	cells  mem.CSR[int32] // face indices per cell, row = iy*nx + ix
}

// newFaceGrid indexes every non-outer face of gbar.
func newFaceGrid(gbar *delaunay.PlanarGraph, faces []delaunay.Face, outer int) *faceGrid {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	nFaces := 0
	for fi, f := range faces {
		if fi == outer {
			continue
		}
		nFaces++
		for _, v := range f.Cycle {
			p := gbar.Point(v)
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
	g := &faceGrid{x0: minX, y0: minY, nx: nx, ny: ny}
	g.cw = w / float64(nx)
	g.ch = h / float64(ny)
	if !(g.cw > 0) {
		g.cw = 1
	}
	if !(g.ch > 0) {
		g.ch = 1
	}

	b := mem.NewCSRBuilder[int32](nx * ny)
	forBBoxCells := func(f delaunay.Face, emit func(cell int)) {
		bx0, by0 := math.Inf(1), math.Inf(1)
		bx1, by1 := math.Inf(-1), math.Inf(-1)
		for _, v := range f.Cycle {
			p := gbar.Point(v)
			bx0, by0 = math.Min(bx0, p.X), math.Min(by0, p.Y)
			bx1, by1 = math.Max(bx1, p.X), math.Max(by1, p.Y)
		}
		ix0, iy0 := g.cellOf(bx0, by0)
		ix1, iy1 := g.cellOf(bx1, by1)
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				emit(iy*nx + ix)
			}
		}
	}
	for fi, f := range faces {
		if fi == outer {
			continue
		}
		forBBoxCells(f, func(c int) { b.Count(c) })
	}
	b.Seal()
	for fi, f := range faces {
		if fi == outer {
			continue
		}
		fi32 := int32(fi)
		forBBoxCells(f, func(c int) { b.Put(c, fi32) })
	}
	g.cells = b.Done()
	return g
}

func (g *faceGrid) cellOf(x, y float64) (int, int) {
	ix := clampInt(int((x-g.x0)/g.cw), 0, g.nx-1)
	iy := clampInt(int((y-g.y0)/g.ch), 0, g.ny-1)
	return ix, iy
}

// candidates appends to dst every face index whose cell neighbourhood the
// segment passes through: samples along L at half the cell pitch, each
// dilated to its 3×3 cell block, deduplicated through the scratch mark sets.
// The result is a superset of all faces whose boundary intersects L.
func (g *faceGrid) candidates(L geom.Segment, sc *corridorScratch, dst []int32) []int32 {
	sc.cellSeen.Reset()
	sc.faceSeen.Reset()
	step := math.Min(g.cw, g.ch) / 2
	length := L.A.Dist(L.B)
	samples := int(length/step) + 1
	for k := 0; k <= samples; k++ {
		t := float64(k) / float64(samples)
		p := geom.Lerp(L.A, L.B, t)
		ix, iy := g.cellOf(p.X, p.Y)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				cx, cy := ix+dx, iy+dy
				if cx < 0 || cy < 0 || cx >= g.nx || cy >= g.ny {
					continue
				}
				c := cy*g.nx + cx
				if sc.cellSeen.Has(c) {
					continue
				}
				sc.cellSeen.Set(c)
				for _, fi := range g.cells.Row(c) {
					if !sc.faceSeen.Has(int(fi)) {
						sc.faceSeen.Set(int(fi))
						dst = append(dst, fi)
					}
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
	cellSeen *mem.Marks
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

func newScratchPool(nCells, nFaces, nNodes int) *sync.Pool {
	return &sync.Pool{New: func() interface{} {
		return &corridorScratch{
			cellSeen: mem.NewMarks(nCells),
			faceSeen: mem.NewMarks(nFaces),
			nodeSeen: mem.NewMarks(nNodes),
		}
	}}
}
