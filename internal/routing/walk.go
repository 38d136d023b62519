// The corridor walk: Chew's message steps from a face to the neighbour across
// the edge the segment st crosses, and the router follows it through the
// face table's adjacency. A triangle is crossed with one side test of its
// third vertex; any other row (a hole, the outer row, the degenerate rows the
// hull edges make where they overlap collinear border paths) is scanned once
// for every point where the segment leaves it. Each face the walk visits
// gets the corridor's entry test, fed with the side tests the walk made.
// DESIGN.md ("Face-to-face corridor walk") argues why the corridor equals a
// scan of every face.

package routing

import (
	"slices"
	"sync"

	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
)

// corridorScratch is the working memory of one Chew call, pooled on the
// Router because engine workers run corridors concurrently. The n-sized
// nodeSeen and every buffer live here rather than on the Router, so a built
// Router carries no per-query state.
type corridorScratch struct {
	nodeSeen *mem.Marks // chain membership, then the blocking face's vertices
	stack    []walkStep
	regions  []int32 // non-triangle regions already entered, by head row
	walked   []int32 // every face whose entry test found L on its boundary, in walk order
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

func (r *Router) getScratch() *corridorScratch { return r.scratch.Get().(*corridorScratch) }

func (r *Router) putScratch(sc *corridorScratch) { r.scratch.Put(sc) }

func newScratchPool(nNodes int) *sync.Pool {
	return &sync.Pool{New: func() interface{} {
		return &corridorScratch{nodeSeen: mem.NewMarks(nNodes)}
	}}
}

// walkStep is pending work of the walk: cross the edge at slot (its tail on
// the right of L, its head on the left) into the row across, or, with
// vertex set, leave the slot's node, which lies on L, through its corners.
type walkStep struct {
	row, slot int32
	vertex    bool
}

// corridorEntry is one corridor face with the parameter along the segment at
// which the segment enters its interior.
type corridorEntry struct {
	param float64
	face  int
}

// corridor returns the indices of all faces whose interior the segment L =
// st passes through, ordered by entry parameter along the segment, ties by
// face index. The walk visits each face the open segment meets once; a face
// earns an entry only through the geometric tests a scan of every face
// would make, so the corridor is identical to that scan. (The outer face
// never earns one: segments between nodes stay inside CH(V).) The returned
// slice lives in sc.
func (r *Router) corridor(L geom.Segment, s, t NodeID, sc *corridorScratch) []int {
	w := walk{r: r, L: L, t: t, pt: L.B, sc: sc}
	w.dir = L.B.Sub(L.A)
	w.len2 = w.dir.Dot(w.dir)
	w.tFaceless = r.anchor[t] < 0
	sc.entries, sc.stack, sc.regions, sc.walked = sc.entries[:0], sc.stack[:0], sc.regions[:0], sc.walked[:0]
	if L.A != L.B {
		w.start(s)
		for len(sc.stack) > 0 {
			st := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			if st.vertex {
				w.leave(st.row, st.slot)
			} else {
				lo, hi := r.faces.Off[st.row], r.faces.Off[st.row+1]
				w.cross(st.slot, NodeID(r.faces.Dat[st.slot]), NodeID(r.faces.Dat[next(st.slot, lo, hi)]))
			}
		}
	}
	// Faces are distinct, so (param, face) is a strict total order and the
	// sorted order does not depend on the sort algorithm.
	entries := sc.entries
	slices.SortFunc(entries, func(a, b corridorEntry) int {
		if a.param != b.param {
			if a.param < b.param {
				return -1
			}
			return 1
		}
		return a.face - b.face
	})
	faces := sc.faces[:0]
	for _, e := range entries {
		faces = append(faces, e.face)
	}
	sc.faces = faces
	return faces
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
// counterclockwise, holding nothing.
func (r *Router) isTri(f int32) bool { return r.tri[f>>6]&(1<<(f&63)) != 0 }

// triangleRows marks the rows the walk crosses with one side test: three
// slots whose nodes turn counterclockwise (so not the outer row, an island's
// outline or a degenerate hull row), and no island or edgeless node inside.
func (r *Router) triangleRows() []uint64 {
	tri := make([]uint64, (r.faces.Rows()+63)/64)
	for f := 0; f < r.faces.Rows(); f++ {
		row := r.faces.Row(f)
		if len(row) != 3 || len(r.inner.attached[int32(f)]) > 0 {
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

// walk is one corridor walk along L from s to t.
type walk struct {
	r         *Router
	L         geom.Segment
	dir       geom.Point
	len2      float64
	t         NodeID
	pt        geom.Point
	tFaceless bool // t has no edges, so it can lie inside a face
	steps     int
	sc        *corridorScratch
}

// start enters the faces around s: its corners when it has edges, else the
// face holding it. Inside an island the walk also enters every face holding
// the island, since their rows enclose it.
func (w *walk) start(s NodeID) {
	r := w.r
	if f := r.anchor[s]; f >= 0 {
		w.leave(f, r.locate(f, int32(s), -1))
		w.enterHolders(r.inner.holderOf(int32(s)))
		return
	}
	e, onEdge := r.inner.onEdge[int32(s)]
	if !onEdge {
		w.enterHolders(r.inner.holderOf(int32(s)))
		return
	}
	// s lies on the edge a→b of row x: L starts on t's side of it, or runs
	// along it to the endpoint towards t.
	x := r.rowOf(e)
	lo, hi := r.faces.Off[x], r.faces.Off[x+1]
	a, b := r.faces.Dat[e], r.faces.Dat[next(e, lo, hi)]
	pa, pb := r.point(a), r.point(b)
	switch geom.Orient(pa, pb, w.pt) {
	case geom.CounterClockwise:
	case geom.Clockwise:
		x = r.across[e]
	default:
		slot, end := next(e, lo, hi), pb
		if !sameDir(w.L.A, pb, w.pt) {
			slot, end = e, pa
		}
		if NodeID(r.faces.Dat[slot]) != w.t && geom.InSegmentBox(end, w.L) {
			w.leave(x, slot)
		}
		w.enterHolders(r.inner.holderOf(r.faces.Dat[r.faces.Off[x]]))
		return
	}
	w.enterRegion(x)
	w.enterHolders(r.inner.holderOf(r.faces.Dat[r.faces.Off[x]]))
}

// enterHolders enters the region of row h and of every face holding it in
// turn, up to a row of the main component (h < 0).
func (w *walk) enterHolders(h int32) {
	for h >= 0 {
		w.enterRegion(h)
		h = w.r.inner.holderOf(w.r.faces.Dat[w.r.faces.Off[h]])
	}
}

// leave continues the walk from the node at slot p of row f, which lies on
// L (or is s). It turns counterclockwise through the corners around the
// node and enters the one whose open wedge holds t; when L runs along edges
// instead, it steps to the nearest node on that ray not beyond t and leaves
// that node in turn.
func (w *walk) leave(f, p int32) {
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
				w.enterCorner(f, p)
				return
			}
			// The next corner counterclockwise leaves v towards b: it lies in
			// the row across the edge b→v.
			f, oa = r.across[pr], ob
			p = r.locate(f, v, b)
			if f == f0 && p == p0 {
				break
			}
		}
		if raySlot < 0 {
			return // L runs inside an edge that ends beyond t: it enters no face
		}
		lo, hi := r.faces.Off[rayRow], r.faces.Off[rayRow+1]
		f, p = rayRow, next(raySlot, lo, hi)
		if NodeID(r.faces.Dat[p]) == w.t {
			return
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
// t. A triangle is left across the edge opposite the corner.
func (w *walk) enterCorner(f, p int32) {
	r := w.r
	if !r.isTri(f) {
		w.enterRegion(f)
		return
	}
	lo, hi := r.faces.Off[f], r.faces.Off[f+1]
	pa, pb := next(p, lo, hi), prev(p, lo, hi)
	var sides [3]geom.Orientation
	sides[p-lo] = geom.Collinear
	sides[pa-lo] = geom.Orient(w.L.A, w.L.B, r.point(r.faces.Dat[pa]))
	sides[pb-lo] = geom.Orient(w.L.A, w.L.B, r.point(r.faces.Dat[pb]))
	w.testTriangle(f, sides)
	a, b := NodeID(r.faces.Dat[pa]), NodeID(r.faces.Dat[pb])
	if w.reaches(a, b) {
		w.cross(pa, a, b)
	}
}

// reaches reports whether L goes on past the edge a→b it is about to cross:
// always, unless t has no edges and so may lie before the edge.
func (w *walk) reaches(a, b NodeID) bool {
	return !w.tFaceless || geom.Orient(w.r.g.Point(a), w.r.g.Point(b), w.pt) == geom.Clockwise
}

// cross follows L across the edge at slot p, from a (right of L) to b (left
// of L), into the row across, and on through triangles: in a triangle
// entered over b→a, the side of the third vertex c alone picks the edge L
// leaves by. It stops at a non-triangle row, which it enters as a region, at
// a vertex on L, which it queues, or at t.
func (w *walk) cross(p int32, a, b NodeID) {
	r := w.r
	for {
		f := r.across[p]
		if !r.isTri(f) {
			w.enterRegion(f)
			return
		}
		w.step()
		lo := r.faces.Off[f]
		ib := r.locate(f, int32(b), int32(a)) - lo
		ia, ic := (ib+1)%3, (ib+2)%3
		c := NodeID(r.faces.Dat[lo+ic])
		var sides [3]geom.Orientation
		sides[ib], sides[ia] = geom.CounterClockwise, geom.Clockwise
		sides[ic] = geom.Orient(w.L.A, w.L.B, r.g.Point(c))
		w.testTriangle(f, sides)
		switch sides[ic] {
		case geom.CounterClockwise:
			p, b = lo+ia, c // out over a→c
		case geom.Clockwise:
			p, a = lo+ic, c // out over c→b
		default:
			if c != w.t && (!w.tFaceless || geom.InSegmentBox(r.g.Point(c), w.L)) {
				w.sc.stack = append(w.sc.stack, walkStep{row: f, slot: lo + ic, vertex: true})
			}
			return
		}
		if !w.reaches(a, b) {
			return
		}
	}
}

// step counts one face crossed; a walk that crosses more faces than the
// table holds is revisiting them.
func (w *walk) step() {
	w.steps++
	if w.steps > w.r.faces.Rows() {
		panic("routing: corridor walk revisits faces")
	}
}

// enterRegion enters the region of row f — the row, or the face holding it
// when f is an island's outline, with every outline that face holds — once
// per walk. It tests each of the region's rows and queues every point where
// L leaves them: each edge L properly crosses with t on its right, and each
// vertex inside L where s lies strictly in the row's corner.
func (w *walk) enterRegion(f int32) {
	r, sc := w.r, w.sc
	h := r.inner.head(f)
	if slices.Contains(sc.regions, h) {
		return
	}
	sc.regions = append(sc.regions, h)
	w.scanRow(h)
	for _, a := range r.inner.attached[h] {
		w.scanRow(a)
	}
}

func (w *walk) scanRow(f int32) {
	r, sc := w.r, w.sc
	w.step()
	lo, hi := r.faces.Off[f], r.faces.Off[f+1]
	poly, sides := sc.poly[:0], sc.sides[:0]
	for _, v := range r.faces.Dat[lo:hi] {
		p := r.point(v)
		poly, sides = append(poly, p), append(sides, geom.Orient(w.L.A, w.L.B, p))
	}
	sc.poly, sc.sides = poly, sides
	if int(f) != r.outer {
		w.test(int(f), poly, sides)
	}
	n := len(poly)
	for j := 0; j < n; j++ {
		k, i := (j+1)%n, (j+n-1)%n
		switch {
		case sides[j] == geom.Clockwise && sides[k] == geom.CounterClockwise:
			if geom.ProperlyIntersectSides(w.L, geom.Seg(poly[j], poly[k]), sides[j], sides[k]) {
				sc.stack = append(sc.stack, walkStep{row: f, slot: lo + int32(j)})
			}
		case sides[j] == geom.Collinear:
			v := poly[j]
			if v == w.L.A || v == w.L.B || !geom.InSegmentBox(v, w.L) {
				continue
			}
			q := w.L.A
			oa, ob := geom.Orient(v, poly[k], q), geom.Orient(v, poly[i], q)
			if oa == geom.Collinear && sameDir(v, poly[k], q) {
				continue // L arrives along the edge, stepping from its other end
			}
			if wedgeHolds(v, poly[k], poly[i], oa, ob, r.faces.Dat[lo+int32(k)] == r.faces.Dat[lo+int32(i)]) {
				sc.stack = append(sc.stack, walkStep{row: f, slot: lo + int32(j), vertex: true})
			}
		}
	}
}

// testTriangle runs the entry test on triangle row f with its sides.
func (w *walk) testTriangle(f int32, sides [3]geom.Orientation) {
	lo := w.r.faces.Off[f]
	row := w.r.faces.Dat[lo : lo+3]
	poly := [3]geom.Point{w.r.point(row[0]), w.r.point(row[1]), w.r.point(row[2])}
	w.test(int(f), poly[:], sides[:])
}

// test gives face fi its corridor entry when the segment passes through its
// interior: the parameters where L crosses an edge or meets a vertex, sorted,
// and the first pair more than 10⁻¹² apart whose midpoint lies strictly
// inside the face. sides[j] is poly[j]'s side of L.
func (w *walk) test(fi int, poly []geom.Point, sides []geom.Orientation) {
	sc, L := w.sc, w.L
	paramOf := func(p geom.Point) float64 { return p.Sub(L.A).Dot(w.dir) / w.len2 }
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
	sc.params = params
	if len(params) > 0 {
		sc.walked = append(sc.walked, int32(fi))
	}
	if len(params) < 2 {
		return
	}
	sortFloats(params)
	for j := 0; j+1 < len(params); j++ {
		if params[j+1]-params[j] < 1e-12 {
			continue
		}
		mid := geom.Lerp(L.A, L.B, (params[j]+params[j+1])/2)
		if geom.PointStrictlyInSimple(mid, poly) {
			sc.entries = append(sc.entries, corridorEntry{params[j], fi})
			return
		}
	}
}

// rowOf returns the row holding slot p.
func (r *Router) rowOf(p int32) int32 {
	f, _ := slices.BinarySearch(r.faces.Off, p+1)
	return int32(f - 1)
}
