// Chew's walk: the message steps from a face to the neighbour across the
// edge the segment st crosses, and the router follows it through the face
// table's adjacency. A triangle is crossed with one side test of its third
// vertex, which then joins the chain on its side of st (both chains when it
// lies on st). The walk stops at t, at the first row that is not a triangle,
// or, when t lies in another component than s, before the first edge t does
// not lie beyond; Chew answers from the chains (chew.go). Only the row it
// stops at gets the exact entry test. DESIGN.md ("Chew from the walk",
// "Face-to-face corridor walk") argues why the chains are paths.

package routing

import (
	"math"
	"sync"

	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
)

// walkScratch is the working memory of one Chew call, pooled on the Router
// because engine workers run walks concurrently. The n-sized nodeSeen and
// every buffer live here rather than on the Router, so a built Router
// carries no per-query state.
type walkScratch struct {
	nodeSeen *mem.Marks // the blocking face's vertices
	tris     []int32    // triangle rows crossed, in walk order, for the walk's contract tests
	poly     []geom.Point
	sides    []geom.Orientation
	params   []float64
	left     []NodeID
	right    []NodeID
}

func (r *Router) getScratch() *walkScratch { return r.scratch.Get().(*walkScratch) }

func (r *Router) putScratch(sc *walkScratch) { r.scratch.Put(sc) }

func newScratchPool(nNodes int) *sync.Pool {
	return &sync.Pool{New: func() interface{} {
		return &walkScratch{nodeSeen: mem.NewMarks(nNodes)}
	}}
}

// next and prev step along a row's slots [lo, hi) cyclically.
func next(p, lo, hi int32) int32 {
	if p+1 == hi {
		return lo
	}
	return p + 1
}

func prev(p, lo, hi int32) int32 {
	if p == lo {
		return hi - 1
	}
	return p - 1
}

// isTri reports whether the walk crosses row f as a triangle: three slots,
// counterclockwise.
func (r *Router) isTri(f int32) bool { return r.tri[f>>6]&(1<<(f&63)) != 0 }

// triangleRows marks the rows the walk crosses with one side test: three
// slots whose nodes turn counterclockwise, so not the outer row or an
// island's outline. An island or an edgeless node inside does not matter:
// the walk meets neither, and stops before a t among them (tApart).
func (r *Router) triangleRows() []uint64 {
	tri := make([]uint64, (r.faces.Rows()+63)/64)
	for f := 0; f < r.faces.Rows(); f++ {
		row := r.faces.Row(f)
		if len(row) != 3 {
			continue
		}
		if geom.Orient(r.point(row[0]), r.point(row[1]), r.point(row[2])) == geom.CounterClockwise {
			tri[f>>6] |= 1 << (f & 63)
		}
	}
	return tri
}

func (r *Router) point(v int32) geom.Point { return r.g.Point(NodeID(v)) }

// locate returns the slot of row f that leaves node v, towards node to when
// to >= 0. The walk calls it on three-slot rows, and on a longer row only
// when turning around a node through that row's corner.
func (r *Router) locate(f, v, to int32) int32 {
	lo, hi := r.faces.Off[f], r.faces.Off[f+1]
	for p := lo; p < hi; p++ {
		if r.faces.Dat[p] == v && (to < 0 || r.faces.Dat[next(p, lo, hi)] == to) {
			return p
		}
	}
	panic("routing: node missing from its face")
}

// hullBit marks an across entry whose slot is a CH(V) edge that g lacks. Row
// indices are non-negative, so the sign bit is free.
const hullBit int32 = -1 << 31

// rowAcross returns the row on the other side of slot p's edge.
func (r *Router) rowAcross(p int32) int32 { return r.across[p] &^ hullBit }

// onHull reports whether slot p's edge is a CH(V) edge that g lacks: a step
// of a chain over it is no step of the network.
func (r *Router) onHull(p int32) bool { return r.across[p] < 0 }

// markHull sets the hull bit of the slot of edge a→b, found by turning
// through the corners around a.
func (r *Router) markHull(a, b int32) {
	f := r.anchor[a]
	p := r.locate(f, a, -1)
	for i := 0; i <= len(r.faces.Dat); i++ {
		lo, hi := r.faces.Off[f], r.faces.Off[f+1]
		if r.faces.Dat[next(p, lo, hi)] == b {
			r.across[p] |= hullBit
			return
		}
		pr := prev(p, lo, hi)
		f = r.rowAcross(pr)
		p = r.locate(f, a, r.faces.Dat[pr])
	}
	panic("routing: hull edge missing from the face table")
}

// walk is one walk along L from s to t. Besides the faces, it records the
// two chains: the nodes it meets left of L, and those right of L, in walk
// order, a node on L in both.
type walk struct {
	r  *Router
	L  geom.Segment
	t  NodeID
	pt geom.Point
	// tApart says t lies in another component than s (it has no edges, or
	// lies on an island): the walk never meets it, and t may lie inside a
	// face, so the walk stops before any edge t does not lie beyond.
	tApart bool
	steps  int
	sc     *walkScratch
	// okL and okR are the lengths of the longest prefixes of the left and
	// right chains that are paths of g: a chain stops being one at its first
	// step over a CH(V) edge.
	okL, okR int
	reached  bool // the walk met t
	// onRow and onSlot locate the node on L that the walk leaves next, the
	// third vertex of the last triangle crossed; onRow is -1 for none.
	onRow, onSlot int32
}

// newWalk starts a walk along L from s to t: both chains hold s, and no
// triangle is crossed yet.
func (r *Router) newWalk(L geom.Segment, s, t NodeID, sc *walkScratch) walk {
	w := walk{r: r, L: L, t: t, pt: L.B, sc: sc, okL: math.MaxInt, okR: math.MaxInt}
	w.tApart = !r.connected(s, t)
	sc.tris = sc.tris[:0]
	sc.left, sc.right = append(sc.left[:0], s), append(sc.right[:0], s)
	return w
}

// run walks from the node at slot p of row f, s or a node on L, and on
// from every node on L a triangle leads it to. It returns the row that is
// not a triangle the walk stopped at, or -1.
func (w *walk) run(f, p int32) int32 {
	for {
		w.onRow = -1
		if stop := w.leave(f, p); stop >= 0 || w.onRow < 0 {
			return stop
		}
		f, p = w.onRow, w.onSlot
	}
}

// addLeft appends v, reached over the edge at slot p, to the left chain.
func (w *walk) addLeft(v NodeID, p int32) { w.sc.left, w.okL = w.r.extend(w.sc.left, w.okL, v, p) }

// addRight appends v, reached over the edge at slot p, to the right chain.
func (w *walk) addRight(v NodeID, p int32) { w.sc.right, w.okR = w.r.extend(w.sc.right, w.okR, v, p) }

// extend appends v, reached over the edge at slot p, to a chain whose longest
// prefix that is a path of g has length ok. A step straight back to the node
// before the last (a, c, a) drops c instead: the chain then ends at v as it
// would have, is a path wherever the longer one was, and is never longer.
// The dropped step no longer counts against ok.
func (r *Router) extend(chain []NodeID, ok int, v NodeID, p int32) ([]NodeID, int) {
	if n := len(chain); n >= 2 && chain[n-2] == v {
		if ok >= n-1 {
			ok = math.MaxInt
		}
		return chain[:n-1], ok
	}
	if r.onHull(p) {
		ok = min(ok, len(chain))
	}
	return append(chain, v), ok
}

// leave continues the walk from the node at slot p of row f, which lies on
// L (or is s). It turns counterclockwise through the corners around the
// node and enters the one whose open wedge holds t; when L runs along edges
// instead, it steps to the nearest node on that ray not beyond t, which joins
// both chains, and leaves that node in turn. It returns the row that is not
// a triangle the walk ran into, or -1.
func (w *walk) leave(f, p int32) int32 {
	r := w.r
	for {
		v := r.faces.Dat[p]
		pv := r.point(v)
		f0, p0 := f, p
		rayRow, raySlot := int32(-1), int32(-1)
		var rayEnd geom.Point
		oa := geom.Collinear
		for first := true; ; first = false {
			lo, hi := r.faces.Off[f], r.faces.Off[f+1]
			pr := prev(p, lo, hi)
			a, b := r.faces.Dat[next(p, lo, hi)], r.faces.Dat[pr]
			pa, pb := r.point(a), r.point(b)
			if first {
				oa = geom.Orient(pv, pa, w.pt)
			}
			ob := geom.Orient(pv, pb, w.pt)
			if oa == geom.Collinear && sameDir(pv, pa, w.pt) {
				if geom.InSegmentBox(pa, geom.Seg(pv, w.pt)) && (raySlot < 0 || geom.InSegmentBox(pa, geom.Seg(pv, rayEnd))) {
					rayRow, raySlot, rayEnd = f, p, pa
				}
			} else if wedgeHolds(pv, pa, pb, oa, ob, a == b) {
				return w.enterCorner(f, p)
			}
			// The next corner counterclockwise leaves v towards b: it lies in
			// the row across the edge b→v.
			f, oa = r.rowAcross(pr), ob
			p = r.locate(f, v, b)
			if f == f0 && p == p0 {
				break
			}
		}
		if raySlot < 0 {
			return -1 // L runs inside an edge that ends beyond t: it enters no face
		}
		lo, hi := r.faces.Off[rayRow], r.faces.Off[rayRow+1]
		f, p = rayRow, next(raySlot, lo, hi)
		u := NodeID(r.faces.Dat[p])
		w.addLeft(u, raySlot)
		w.addRight(u, raySlot)
		if u == w.t {
			w.reached = true
			return -1
		}
		w.step()
	}
}

// wedgeHolds reports whether the open wedge swept counterclockwise from ray
// v→a to ray v→b holds the direction from v to q, given oa = Orient(v, a, q)
// and ob = Orient(v, b, q) with q not on ray v→a. The wedge may be convex,
// reflex, straight, a zero-angle sliver between two edges in one direction,
// or, when a and b are one node (full), a full turn around a dangling edge.
func wedgeHolds(v, a, b geom.Point, oa, ob geom.Orientation, full bool) bool {
	if full {
		return true // all but ray v→a, which q is not on
	}
	if oa == geom.CounterClockwise && ob == geom.Clockwise {
		return true // left of v→a and right of v→b: inside any wedge but a sliver, where oa = ob
	}
	// Only a reflex wedge holds q beyond that: it is the union of the half-
	// planes left of v→a and right of v→b.
	return geom.Orient(v, a, b) == geom.Clockwise && (oa == geom.CounterClockwise || ob == geom.Clockwise)
}

// sameDir reports whether q lies on the ray from v through a, for q
// collinear with v and a.
func sameDir(v, a, q geom.Point) bool {
	return (a.X > v.X) == (q.X > v.X) && (a.X < v.X) == (q.X < v.X) &&
		(a.Y > v.Y) == (q.Y > v.Y) && (a.Y < v.Y) == (q.Y < v.Y) && q != v
}

// enterCorner enters row f at its corner on slot p, whose open wedge holds
// t, and returns f when it is not a triangle. A triangle is left across the
// edge opposite the corner, whose ends lie right (a) and left (b) of L: the
// wedge of a counterclockwise triangle's corner is convex, so it holds t
// only strictly between them.
func (w *walk) enterCorner(f, p int32) int32 {
	r := w.r
	if !r.isTri(f) {
		return f
	}
	w.sc.tris = append(w.sc.tris, f)
	lo, hi := r.faces.Off[f], r.faces.Off[f+1]
	pa, pb := next(p, lo, hi), prev(p, lo, hi)
	a, b := NodeID(r.faces.Dat[pa]), NodeID(r.faces.Dat[pb])
	w.addRight(a, p)
	w.addLeft(b, pb)
	if !w.reaches(a, b) {
		return -1
	}
	return w.cross(pa, a, b)
}

// reaches reports whether L goes on past the edge a→b it is about to cross:
// always, unless t lies apart and so may lie before the edge.
func (w *walk) reaches(a, b NodeID) bool {
	return !w.tApart || geom.Orient(w.r.g.Point(a), w.r.g.Point(b), w.pt) == geom.Clockwise
}

// cross follows L across the edge at slot p, from a (right of L) to b (left
// of L), into the row across, and on through triangles: in a triangle
// entered over b→a, the side of the third vertex c alone picks the edge L
// leaves by, and c joins the chain on that side (both on L). So the left
// chain always ends at b and the right one at a, and each step of a chain
// runs along an edge of the triangle just crossed. It stops at a row that is
// not a triangle, which it returns, at a vertex on L, which it leaves next
// (onRow), or at t.
func (w *walk) cross(p int32, a, b NodeID) int32 {
	r := w.r
	for {
		f := r.rowAcross(p)
		if !r.isTri(f) {
			return f
		}
		w.step()
		w.sc.tris = append(w.sc.tris, f)
		lo := r.faces.Off[f]
		ib := r.locate(f, int32(b), int32(a)) - lo
		ia, ic := (ib+1)%3, (ib+2)%3
		c := NodeID(r.faces.Dat[lo+ic])
		switch geom.Orient(w.L.A, w.L.B, r.g.Point(c)) {
		case geom.CounterClockwise:
			w.addLeft(c, lo+ic)
			p, b = lo+ia, c // out over a→c
		case geom.Clockwise:
			w.addRight(c, lo+ia)
			p, a = lo+ic, c // out over c→b
		default:
			w.addLeft(c, lo+ic)
			w.addRight(c, lo+ia)
			if c == w.t {
				w.reached = true
			} else if !w.tApart || geom.InSegmentBox(r.g.Point(c), w.L) {
				w.onRow, w.onSlot = f, lo+ic
			}
			return -1
		}
		if !w.reaches(a, b) {
			return -1
		}
	}
}

// step counts one face crossed; a walk that crosses more faces than the
// table holds is revisiting them.
func (w *walk) step() {
	w.steps++
	if w.steps > w.r.faces.Rows() {
		panic("routing: Chew's walk revisits faces")
	}
}

// enters reports whether L passes through the interior of row f, by the
// exact entry test: the parameters where L crosses an edge or meets a vertex,
// sorted, and the first pair more than 10⁻¹² apart whose midpoint lies
// strictly inside the face.
func (w *walk) enters(f int32) bool {
	r, sc, L := w.r, w.sc, w.L
	poly, sides := sc.poly[:0], sc.sides[:0]
	for _, v := range r.faces.Row(int(f)) {
		p := r.point(v)
		poly, sides = append(poly, p), append(sides, geom.Orient(L.A, L.B, p))
	}
	dir := L.B.Sub(L.A)
	len2 := dir.Dot(dir)
	paramOf := func(p geom.Point) float64 { return p.Sub(L.A).Dot(dir) / len2 }
	n := len(poly)
	params := sc.params[:0]
	for j := 0; j < n; j++ {
		k := (j + 1) % n
		e := geom.Seg(poly[j], poly[k])
		if geom.ProperlyIntersectSides(L, e, sides[j], sides[k]) {
			if x, ok := geom.SegmentIntersection(L, e); ok {
				params = append(params, clamp01(paramOf(x)))
			}
		}
		if sides[j] == geom.Collinear && geom.InSegmentBox(poly[j], L) {
			params = append(params, clamp01(paramOf(poly[j])))
		}
	}
	sc.poly, sc.sides, sc.params = poly, sides, params
	sortFloats(params)
	for j := 0; j+1 < len(params); j++ {
		if params[j+1]-params[j] < 1e-12 {
			continue
		}
		mid := geom.Lerp(L.A, L.B, (params[j]+params[j+1])/2)
		if geom.PointStrictlyInSimple(mid, poly) {
			return true
		}
	}
	return false
}
