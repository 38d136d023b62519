// Chew's walk: the message steps from a face to the neighbour across the
// edge the segment st crosses, and the router follows it through the face
// table's adjacency: one int32 per slot that names the slot of the reversed
// edge (its twin) and the twin's position in its row when that row is a
// walkable triangle. A triangle is crossed with one side test of its third
// vertex, which then joins the chain on its side of st (both chains when it
// lies on st), and its slots are found from the twin alone: no row index, no
// row bounds, no scan. The walk stops at t or at the first row that is not a
// triangle; only that row gets its index, by binary search, and the exact
// entry test. Chew answers from the chains (chew.go). DESIGN.md ("Chew from
// the walk", "Face-to-face corridor walk") argues why the chains are paths.

package routing

import (
	"fmt"
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
	tris     []int32    // first slots of the triangles crossed, in walk order, for the walk's contract tests
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

// The adjacency entry of slot p packs three fields into one int32: the slot
// of p's reversed edge (its twin) shifted left by 2; in the low 2 bits, the
// twin's position in its row (0–2) when that row is a walkable triangle
// (three slots whose nodes turn counterclockwise, so not the outer row or an
// island's outline), and notTri otherwise; and in the sign bit, hullBit.
const (
	notTri  int32 = 3
	hullBit int32 = -1 << 31
	// maxSlots bounds the face table: a twin shifted left by 2 must stay
	// clear of the sign bit.
	maxSlots = 1 << 29
)

// encodeAdjacency turns the twin table into the adjacency entries, in place.
// Each entry first takes its own slot's position code, then each pair of
// twins swaps codes, so an entry holds its twin's.
func (r *Router) encodeAdjacency(twin []int32) []int32 {
	if len(twin) > maxSlots {
		panic(fmt.Sprintf("routing: %d face slots, more than the 2^29 the adjacency encoding holds", len(twin)))
	}
	for f := 0; f < r.faces.Rows(); f++ {
		lo, hi := r.faces.Off[f], r.faces.Off[f+1]
		row := r.faces.Dat[lo:hi]
		tri := len(row) == 3 && geom.Orient(r.point(row[0]), r.point(row[1]), r.point(row[2])) == geom.CounterClockwise
		for p := lo; p < hi; p++ {
			code := notTri
			if tri {
				code = p - lo
			}
			twin[p] = twin[p]<<2 | code
		}
	}
	for p, e := range twin {
		if q := e >> 2; int32(p) < q {
			twin[p], twin[q] = q<<2|twin[q]&notTri, int32(p)<<2|e&notTri
		}
	}
	return twin
}

func (r *Router) point(v int32) geom.Point { return r.g.Point(NodeID(v)) }

// twinOf returns the slot an adjacency entry names.
func twinOf(e int32) int32 { return (e &^ hullBit) >> 2 }

// twin returns the slot of p's reversed edge.
func (r *Router) twin(p int32) int32 { return twinOf(r.adj[p]) }

// pos returns slot p's own position code, which its twin's entry holds.
func (r *Router) pos(p int32) int32 { return r.adj[r.twin(p)] & notTri }

// bounds returns the slots [lo, hi) of the row holding slot p, whose
// position code is pos: a triangle's from the code, any other row's by
// binary search, which the walk needs only for a row that is not a walkable
// triangle.
func (r *Router) bounds(p, pos int32) (lo, hi int32) {
	if pos != notTri {
		return p - pos, p - pos + 3
	}
	f := r.faces.RowOf(p)
	return r.faces.Off[f], r.faces.Off[f+1]
}

// onHull reports whether slot p's edge is a CH(V) edge that g lacks: a step
// of a chain over it is no step of the network.
func (r *Router) onHull(p int32) bool { return r.adj[p] < 0 }

// walk is one walk along L from s to t. Besides the faces, it records the
// two chains: the nodes it meets left of L, and those right of L, in walk
// order, a node on L in both.
type walk struct {
	r     *Router
	L     geom.Segment
	t     NodeID
	pt    geom.Point
	steps int
	sc    *walkScratch
	// okL and okR are the lengths of the longest prefixes of the left and
	// right chains that are paths of g: a chain stops being one at its first
	// step over a CH(V) edge.
	okL, okR int
	reached  bool // the walk met t
	// onSlot and onPos locate the node on L that the walk leaves next, the
	// third vertex of the last triangle crossed: its slot in that triangle
	// and the slot's position; onSlot is -1 for none.
	onSlot, onPos int32
}

// newWalk starts a walk along L from s to t, which lie in one component:
// both chains hold s, and no triangle is crossed yet.
func (r *Router) newWalk(L geom.Segment, s, t NodeID, sc *walkScratch) walk {
	w := walk{r: r, L: L, t: t, pt: L.B, sc: sc, okL: math.MaxInt, okR: math.MaxInt}
	sc.tris = sc.tris[:0]
	sc.left, sc.right = append(sc.left[:0], s), append(sc.right[:0], s)
	return w
}

// run walks from the node at slot p, whose position code is pos, s or a
// node on L, and on from every node on L a triangle leads it to. It returns
// the row that is not a triangle the walk stopped at, or -1.
func (w *walk) run(p, pos int32) int32 {
	for {
		w.onSlot = -1
		if stop := w.leave(p, pos); stop >= 0 || w.onSlot < 0 {
			return stop
		}
		p, pos = w.onSlot, w.onPos
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

// leave continues the walk from the node at slot p, whose position code is
// pos, which lies on L (or is s). It turns counterclockwise through the
// corners around the node and enters the one whose open wedge holds t; when
// L runs along edges instead, it steps to the nearest node on that ray not
// beyond t, which joins both chains, and leaves that node in turn. It
// returns the row that is not a triangle the walk ran into, or -1.
func (w *walk) leave(p, pos int32) int32 {
	r := w.r
	for {
		v := r.faces.Dat[p]
		pv := r.point(v)
		p0 := p
		raySlot, rayPos, rayLo, rayHi := int32(-1), int32(0), int32(0), int32(0)
		var rayEnd geom.Point
		oa := geom.Collinear
		for first := true; ; first = false {
			lo, hi := r.bounds(p, pos)
			pr := prev(p, lo, hi)
			a, b := r.faces.Dat[next(p, lo, hi)], r.faces.Dat[pr]
			pa, pb := r.point(a), r.point(b)
			if first {
				oa = geom.Orient(pv, pa, w.pt)
			}
			ob := geom.Orient(pv, pb, w.pt)
			if oa == geom.Collinear && sameDir(pv, pa, w.pt) {
				if geom.InSegmentBox(pa, geom.Seg(pv, w.pt)) && (raySlot < 0 || geom.InSegmentBox(pa, geom.Seg(pv, rayEnd))) {
					raySlot, rayPos, rayLo, rayHi, rayEnd = p, pos, lo, hi, pa
				}
			} else if wedgeHolds(pv, pa, pb, oa, ob, a == b) {
				if pos == notTri {
					return r.faces.RowOf(p)
				}
				return w.enterCorner(p, pos)
			}
			// The next corner counterclockwise leaves v towards b: it is the
			// twin of the incoming edge b→v.
			e := r.adj[pr]
			p, pos, oa = twinOf(e), e&notTri, ob
			if p == p0 {
				break
			}
		}
		if raySlot < 0 {
			return -1 // L runs inside an edge that ends beyond t: it enters no face
		}
		p, pos = next(raySlot, rayLo, rayHi), notTri
		if rayPos != notTri {
			pos = p - rayLo
		}
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

// enterCorner enters the walkable triangle at its corner on slot p, at
// position pos, whose open wedge holds t. It leaves across the edge opposite
// the corner, whose ends lie right (a) and left (b) of L: the wedge of a
// counterclockwise triangle's corner is convex, so it holds t only strictly
// between them.
func (w *walk) enterCorner(p, pos int32) int32 {
	lo := p - pos
	w.sc.tris = append(w.sc.tris, lo)
	pa, pb := lo+(pos+1)%3, lo+(pos+2)%3
	w.addRight(NodeID(w.r.faces.Dat[pa]), p)
	w.addLeft(NodeID(w.r.faces.Dat[pb]), pb)
	return w.cross(pa)
}

// cross follows L across the edge at slot p, from its tail a (right of L) to
// its head b (left of L), into the row across, and on through triangles. The
// row across holds p's twin b→a; when it is a walkable triangle, the twin's
// position gives the triangle's first slot, and from there its third vertex c
// and both exit slots. The side of c alone picks the edge L leaves by, and c
// joins the chain on that side (both on L). So the left chain always ends at
// b and the right one at a, and each step of a chain runs along an edge of
// the triangle just crossed. It stops at a row that is not a triangle, which
// it returns, at a vertex on L, which it leaves next (onSlot), or at t.
func (w *walk) cross(p int32) int32 {
	r := w.r
	for {
		e := r.adj[p]
		q, ib := twinOf(e), e&notTri
		if ib == notTri {
			return r.faces.RowOf(q)
		}
		w.step()
		lo := q - ib
		w.sc.tris = append(w.sc.tris, lo)
		ia, ic := lo+(ib+1)%3, lo+(ib+2)%3
		c := NodeID(r.faces.Dat[ic])
		switch geom.Orient(w.L.A, w.L.B, r.g.Point(c)) {
		case geom.CounterClockwise:
			w.addLeft(c, ic)
			p = ia // out over a→c
		case geom.Clockwise:
			w.addRight(c, ia)
			p = ic // out over c→b
		default:
			w.addLeft(c, ic)
			w.addRight(c, ia)
			if c == w.t {
				w.reached = true
			} else {
				w.onSlot, w.onPos = ic, ic-lo
			}
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
