// LDel2Fast is the centralized construction of the 2-localized Delaunay graph.
// The definitional evaluation (LDelK, now a test oracle) materializes every
// node's k-hop neighbourhood up front — O(n·Δ^k) memory and a hash set per
// triangle — which is fine at n=10³ and hopeless at n=10⁶. LDel2Fast computes the identical graph (same Definition 2.2/2.3
// predicates, same exact-arithmetic InCircle tests) from purely local
// geometry:
//
//   - a node x can only reject a triangle (u, v, w) if InCircle puts it
//     strictly inside the triangle's circumcircle and it lies within 2 UDG
//     hops of u, v, or w, hence within Euclidean distance 3r of u. A triangle
//     that survives the test against u's neighbours scans the UDG grid cells
//     of the circumcircle's bounding box, widened by a margin that covers the
//     rounding of the computed centre and radius, when that box is smaller
//     than the 3r box around u; a thin triangle or a large circle scans the
//     3r box, enumerated once per u;
//   - "within 2 hops of base" is decided with two epoch-stamped membership
//     sets: x is within 2 hops of base iff x is base/a neighbour of base, or
//     some UDG neighbour of x is — no BFS, no hashing;
//   - the per-node work shards cleanly, so construction runs on all cores.
//     Each worker sorts and dedupes its own edges and the sorted runs are
//     merged, so the edge list is the same whatever the scheduling.
//
// The equivalence LDel2Fast(g) == LDelK(g, 2) is pinned by test, and the
// historical construction (3r box only, one serial sort) is kept as a test
// oracle.

package delaunay

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
	"hybridroute/internal/udg"
)

// LDel2Fast computes LDel²(V) of the unit disk graph g (Definition 2.3: the
// Gabriel edges plus the edges of 2-localized triangles) in near-linear time
// and memory.
func LDel2Fast(g *udg.Graph) *PlanarGraph {
	n := g.N()
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	parts := make([][]uint64, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo := wk * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			run := ldel2Range(g, lo, hi)
			slices.Sort(run)
			parts[wk] = slices.Compact(run)
		}(wk, lo, hi)
	}
	wg.Wait()
	return NewPlanarGraph(g.Points(), mergeEdges(parts))
}

// mergeEdges merges sorted, duplicate-free runs of packed edges pairwise
// into one sorted, duplicate-free edge list: the list that sorting and
// deduping their concatenation gives.
func mergeEdges(runs [][]uint64) [][2]int {
	for len(runs) > 1 {
		next := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				next = append(next, runs[i])
				break
			}
			next = append(next, mergeUnique(runs[i], runs[i+1]))
		}
		runs = next
	}
	edges := make([][2]int, len(runs[0]))
	for i, e := range runs[0] {
		edges[i] = [2]int{int(e >> 32), int(uint32(e))}
	}
	return edges
}

// mergeUnique merges two sorted, duplicate-free slices into one.
func mergeUnique(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out = append(out, a[0])
			a = a[1:]
		case b[0] < a[0]:
			out = append(out, b[0])
			b = b[1:]
		default:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// Margins of circleBox: the circle's radius grows by circleRelSlack of
// itself plus circleAbsSlack of 1 + |u.X| + |u.Y|, far above the rounding
// error of the computed centre (DESIGN, "Flat-arena memory layout").
// Triangles with |2(b×c)| < circleMinFat·L² are too thin for that bound and
// keep the 3r box.
const (
	circleRelSlack = 1e-6
	circleAbsSlack = 1e-9
	circleMinFat   = 1e-3
)

// circleBox returns a box holding every point strictly inside the circle
// through pu, pv and pw, in the exact-arithmetic sense of geom.InCircle,
// and false when the triangle is too thin for the rounded centre to be
// trusted or when the box is not smaller than the 3r box around pu.
func circleBox(pu, pv, pw geom.Point, r float64) (lo, hi geom.Point, ok bool) {
	bx, by := pv.X-pu.X, pv.Y-pu.Y
	cx, cy := pw.X-pu.X, pw.Y-pu.Y
	b2, c2 := bx*bx+by*by, cx*cx+cy*cy
	d := 2 * (bx*cy - by*cx)
	if math.Abs(d) < circleMinFat*max(b2, c2, pv.Dist2(pw)) {
		return lo, hi, false
	}
	ox := (cy*b2 - by*c2) / d
	oy := (bx*c2 - cx*b2) / d
	rho := math.Sqrt(ox*ox+oy*oy)*(1+circleRelSlack) + circleAbsSlack*(1+math.Abs(pu.X)+math.Abs(pu.Y))
	if !(rho < 3*r) {
		return lo, hi, false
	}
	ox, oy = pu.X+ox, pu.Y+oy
	return geom.Point{X: ox - rho, Y: oy - rho}, geom.Point{X: ox + rho, Y: oy + rho}, true
}

// ldel2Range emits the LDel² edges whose minimum vertex (for triangles) or
// lower endpoint (for Gabriel edges) lies in [lo, hi), packed as a<<32|b
// with a < b.
func ldel2Range(g *udg.Graph, lo, hi int) []uint64 {
	r := g.Radius()
	r2 := r * r
	var out []uint64
	add := func(a, b udg.NodeID) {
		if a > b {
			a, b = b, a
		}
		out = append(out, uint64(a)<<32|uint64(uint32(b)))
	}

	n := g.N()
	mkU := mem.NewMarks(n)
	mkV := mem.NewMarks(n)
	mkW := mem.NewMarks(n)
	// stamp loads base's closed neighbourhood {base} ∪ N(base) into mk.
	stamp := func(mk *mem.Marks, base udg.NodeID) {
		mk.Reset()
		mk.Set(int(base))
		for _, y := range g.Neighbors(base) {
			mk.Set(int(y))
		}
	}
	// within2 decides x ∈ N≤2(base) given mk = {base} ∪ N(base): either x is
	// already marked (≤ 1 hop) or one of x's neighbours is (exactly 2 hops).
	within2 := func(mk *mem.Marks, x udg.NodeID) bool {
		if mk.Has(int(x)) {
			return true
		}
		for _, y := range g.Neighbors(x) {
			if mk.Has(int(y)) {
				return true
			}
		}
		return false
	}

	var box3, circ []udg.NodeID
	for u := lo; u < hi; u++ {
		pu := g.Point(udg.NodeID(u))
		nbrs := g.Neighbors(udg.NodeID(u))

		// Gabriel edges — identical predicate and scan order to the oracle.
		for _, v := range nbrs {
			if int(v) < u {
				continue
			}
			pv := g.Point(v)
			gabriel := true
			for _, w := range nbrs {
				if w == v {
					continue
				}
				if geom.InDiametralCircle(pu, pv, g.Point(w)) {
					gabriel = false
					break
				}
			}
			if gabriel {
				add(udg.NodeID(u), v)
			}
		}

		// 2-localized triangles from their minimum vertex u. Any rejector
		// lies inside the circumcircle and within 2 hops of u, v, or w, hence
		// within Euclidean 3r of u: the candidates come from the grid cells of
		// the circle's box or, failing that, of the 3r box, enumerated once
		// per u.
		box3 = box3[:0]
		haveBox3 := false
		stampedU := false
		for i := 0; i < len(nbrs); i++ {
			v := nbrs[i]
			if int(v) < u {
				continue
			}
			pv := g.Point(v)
			stampedV := false
			for j := i + 1; j < len(nbrs); j++ {
				w := nbrs[j]
				if int(w) < u {
					continue
				}
				pw := g.Point(w)
				if pv.Dist2(pw) > r2 {
					continue
				}
				if geom.Orient(pu, pv, pw) == geom.Collinear {
					continue
				}
				// Fast rejection: every UDG neighbour of u is within 2 hops
				// of u, so a single InCircle hit among them settles it.
				rejected := false
				for _, x := range nbrs {
					if x == v || x == w {
						continue
					}
					if geom.InCircle(pu, pv, pw, g.Point(x)) {
						rejected = true
						break
					}
				}
				if rejected {
					continue
				}
				var cand []udg.NodeID
				if clo, chi, ok := circleBox(pu, pv, pw, r); ok {
					circ = circ[:0]
					g.ForNodesInBox(clo, chi, func(x udg.NodeID) { circ = append(circ, x) })
					cand = circ
				} else {
					if !haveBox3 {
						lo3 := geom.Point{X: pu.X - 3*r, Y: pu.Y - 3*r}
						hi3 := geom.Point{X: pu.X + 3*r, Y: pu.Y + 3*r}
						g.ForNodesInBox(lo3, hi3, func(x udg.NodeID) { box3 = append(box3, x) })
						haveBox3 = true
					}
					cand = box3
				}
				if !stampedU {
					stamp(mkU, udg.NodeID(u))
					stampedU = true
				}
				if !stampedV {
					stamp(mkV, v)
					stampedV = true
				}
				stamp(mkW, w)
				for _, x := range cand {
					if x == udg.NodeID(u) || x == v || x == w {
						continue
					}
					px := g.Point(x)
					// A 2-hop rejector of any base vertex is within 2r of it.
					du := px.Dist2(pu) <= 4*r2
					dv := px.Dist2(pv) <= 4*r2
					dw := px.Dist2(pw) <= 4*r2
					if !du && !dv && !dw {
						continue
					}
					if !geom.InCircle(pu, pv, pw, px) {
						continue
					}
					if (du && within2(mkU, x)) || (dv && within2(mkV, x)) || (dw && within2(mkW, x)) {
						rejected = true
						break
					}
				}
				if rejected {
					continue
				}
				add(udg.NodeID(u), v)
				add(v, w)
				add(udg.NodeID(u), w)
			}
		}
	}
	return out
}
