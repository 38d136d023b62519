package vis

import "hybridroute/internal/geom"

// Links returns the link test Search takes for endpoint p: links(i) reports
// Visible(p, Corners()[i]), answer for answer. It is decided from one view
// of the obstacles taken from p: p's side of every edge of every strictly
// convex counterclockwise obstacle, computed once. With it most (corner,
// obstacle) pairs the box cull keeps are settled by a few exact
// orientations; the rest, and every other obstacle, go to the predicate
// Visible runs. The argument order stays (p, corner), since the predicate's
// sampled probes (geom.Lerp) are not symmetric in the segment's ends.
func (o *obstacleSet) Links(p geom.Point) func(i int) bool {
	return o.view(p).sees
}

// verdict is the view's answer for one obstacle and one segment pq.
type verdict uint8

const (
	// clear: the closed segment misses the obstacle's open interior, so
	// geom.SegmentIntersectsPolygon is false. No edge is properly crossed,
	// and every sampled probe lies within geom.Lerp's rounding of a point
	// outside the open interior, so the even-odd test can only place it
	// within that rounding of the boundary, below boundaryTol. The rounding
	// stays under boundaryTol for coordinates below 10⁶ in magnitude, the
	// premise cullMargin states too.
	clear verdict = iota
	// blocked: exact orientations show that pq properly crosses an obstacle
	// edge, so geom.SegmentIntersectsPolygon's edge loop finds a crossing.
	blocked
	// undecided: a zero orientation, a chord from the boundary, or an
	// obstacle the view does not cover; the predicate decides.
	undecided
)

// Where an endpoint lies against a strictly convex counterclockwise
// obstacle. An obstacle that is not, or that holds the endpoint strictly
// inside, is left to the predicate (uncovered).
const (
	uncovered = iota
	outside   // strictly outside; the front chain is edges k … k+n−1
	onEdge    // in the relative interior of edge k
	onVertex  // at vertex k
)

// spot is an endpoint's place against one obstacle. Edge k joins vertex k
// to vertex k+1, indices taken modulo the obstacle's size.
type spot struct {
	kind uint8
	k, n int
}

// view is what endpoint p sees of an obstacle set: side[e] is
// geom.Orient(corners[e], the next corner of its polygon, p), p's side of
// the edge that starts at corner e, for every corner of a covered obstacle,
// and at[j] is p's place against obstacle j.
type view struct {
	o    *obstacleSet
	p    geom.Point
	side []geom.Orientation
	at   []spot
}

// view takes p's view of o. On a counterclockwise obstacle the interior is
// left of every edge, so p sees edge k from outside exactly when
// side = Clockwise. On a strictly convex one those front edges form one
// cyclic run, p is on the boundary exactly when no edge is a front edge and
// one or two adjacent sides are zero, and strictly inside when all sides
// are counterclockwise.
func (o *obstacleSet) view(p geom.Point) *view {
	v := &view{o: o, p: p, at: make([]spot, len(o.polys))}
	for j, poly := range o.polys {
		if !o.convex[j] {
			continue
		}
		if v.side == nil {
			v.side = make([]geom.Orientation, len(o.corners))
		}
		m := len(poly)
		side := v.side[o.first[j] : o.first[j]+m]
		for k := range poly {
			side[k] = geom.Orient(poly[k], poly[(k+1)%m], p)
		}
		front, start, zeros, edge, vertex := 0, 0, 0, 0, 0
		for k, s := range side {
			prev := side[(k+m-1)%m]
			switch s {
			case geom.Clockwise:
				front++
				if prev != geom.Clockwise {
					start = k
				}
			case geom.Collinear:
				zeros++
				if prev == geom.Collinear {
					vertex = k
				} else {
					edge = k
				}
			}
		}
		switch {
		case front > 0:
			v.at[j] = spot{outside, start, front}
		case zeros == 1:
			v.at[j] = spot{kind: onEdge, k: edge}
		case zeros == 2:
			v.at[j] = spot{kind: onVertex, k: vertex}
		}
	}
	return v
}

// sees reports Visible(v.p, corners[c]): each obstacle the box cull keeps is
// decided by the view, and by Visible's own test where the view cannot. The
// corner's own obstacle goes first: from outside it hides about half of its
// corners, and the answer is the same in any order.
func (v *view) sees(c int) bool {
	q := v.o.corners[c]
	sb := geom.EmptyBox().Extend(v.p).Extend(q)
	own := v.o.owner[c]
	if v.blockedBy(own, c, sb) {
		return false
	}
	for j := range v.o.polys {
		if j != own && v.blockedBy(j, c, sb) {
			return false
		}
	}
	return true
}

// blockedBy reports whether obstacle j blocks the segment from v.p to corner
// c, whose bounding box is sb.
func (v *view) blockedBy(j, c int, sb geom.Box) bool {
	if !sb.Overlaps(v.o.boxes[j]) {
		return false
	}
	switch v.classify(j, c) {
	case blocked:
		return true
	case undecided:
		return v.o.blocks(j, v.p, v.o.corners[c])
	}
	return false
}

// classify decides whether obstacle j blocks the segment from v.p to corner
// c with exact orientations only: fromBoundary and fromOutside say how. An
// obstacle the view does not cover is left to the predicate.
func (v *view) classify(j, c int) verdict {
	switch v.at[j].kind {
	case outside:
		return v.fromOutside(j, c)
	case onEdge, onVertex:
		return v.fromBoundary(j, c)
	}
	return undecided
}

// fromBoundary decides obstacle j for an endpoint p on its boundary, at
// vertex v_k or inside edge k. Below, side(v) is geom.Orient(p, q, v), the
// side of v of the line pq, as the predicate's edge loop computes it.
//
//   - j's open interior lies in the open angle of j at p: the open
//     half-plane left of edge k, or at a vertex the intersection of that
//     with the one left of edge k−1. A segment from p to a q outside that
//     cone stays outside it: clear.
//   - Otherwise the segment enters the interior at p. Seen from p the
//     vertices v_{k+1} … v_last (v_{k−1} at a vertex, v_k on an edge) turn
//     counterclockwise across the angle, side(v_{k+1}) is clockwise and
//     side(v_last) counterclockwise, and the ray pq leaves j through the
//     edge w where side turns. If q is strictly beyond w, pq properly
//     crosses w: side(v_w) and side(v_{w+1}) are opposite and nonzero, p
//     is strictly inside w's half-plane and q strictly outside: blocked.
//   - A ray through a vertex (side zero, as on every chord to a corner of
//     j), or a q inside j or on w, is left to the predicate: a chord's
//     probes decide it.
func (v *view) fromBoundary(j, c int) verdict {
	poly := v.o.polys[j]
	m := len(poly)
	p, q := v.p, v.o.corners[c]
	k, last := v.at[j].k, v.at[j].k+m
	if geom.Orient(poly[k], poly[(k+1)%m], q) != geom.CounterClockwise {
		return clear
	}
	if v.at[j].kind == onVertex {
		last--
		if geom.Orient(poly[(k+m-1)%m], poly[k], q) != geom.CounterClockwise {
			return clear
		}
	}
	w := last - 1
	for i := k + 2; i < last; i++ {
		s := geom.Orient(p, q, poly[i%m])
		if s == geom.Collinear {
			return undecided
		}
		if s == geom.CounterClockwise {
			w = i - 1
			break
		}
	}
	if geom.Orient(poly[w%m], poly[(w+1)%m], q) == geom.Clockwise {
		return blocked
	}
	return undecided
}

// fromOutside decides obstacle j for an endpoint p strictly outside it.
// Seen from p the front chain's vertices v_k … v_{k+n} turn clockwise, and
// j lies in the cone between the tangent rays through v_k and v_{k+n},
// which is narrower than a half-plane. Below, side(v) is
// geom.Orient(p, q, v), the side of v of the line pq, as the predicate's
// edge loop computes it.
//
//   - q a corner of j: j's open interior lies in the open angle at q. If p
//     is not strictly inside that angle, the segment stays outside it:
//     clear. Otherwise q is strictly inside the cone, and the general rule
//     below finds the front edge the segment crosses.
//   - q strictly outside the cone (side(v_k) clockwise, or side(v_{k+n})
//     counterclockwise): so is every point of the segment but p, and the
//     segment misses j: clear.
//   - q strictly inside the cone: side turns from counterclockwise at v_k to
//     clockwise at v_{k+n}, and the front edge w where it turns holds the
//     ray pq in its wedge. If q is strictly behind w (interior side), pq
//     properly crosses w: side(v_w) and side(v_{w+1}) are opposite and
//     nonzero, and so are p's and q's sides of w: blocked. If q is strictly
//     in front of w, p and q lie strictly outside w's closed half-plane,
//     which holds j: clear.
//   - Any zero on the way (a ray through a front vertex, a q on a tangent
//     ray or on w's line) is a tie: the predicate decides. The vertex pass
//     of geom.SegmentIntersectsPolygon is one.
func (v *view) fromOutside(j, c int) verdict {
	poly := v.o.polys[j]
	m := len(poly)
	base := v.o.first[j]
	if i := c - base; 0 <= i && i < m {
		if v.side[base+(i+m-1)%m] != geom.CounterClockwise || v.side[base+i] != geom.CounterClockwise {
			return clear
		}
	}
	p, q := v.p, v.o.corners[c]
	k, n := v.at[j].k, v.at[j].n
	first := geom.Orient(p, q, poly[k])
	if first == geom.Clockwise {
		return clear
	}
	last := geom.Orient(p, q, poly[(k+n)%m])
	if last == geom.CounterClockwise {
		return clear
	}
	if first == geom.Collinear || last == geom.Collinear {
		return undecided
	}
	w := k + n - 1
	for i := k + 1; i < k+n; i++ {
		s := geom.Orient(p, q, poly[i%m])
		if s == geom.Collinear {
			return undecided
		}
		if s == geom.Clockwise {
			w = i - 1
			break
		}
	}
	switch geom.Orient(poly[w%m], poly[(w+1)%m], q) {
	case geom.CounterClockwise:
		return blocked
	case geom.Clockwise:
		return clear
	}
	return undecided
}

// strictlyConvexCCW reports whether poly is a strictly convex polygon listed
// counterclockwise: every vertex off an edge lies strictly left of it. Every
// turn being a left one (geom.IsConvexCCW, checked first because it is
// linear) is not enough on its own: a pentagram's turns are all left.
func strictlyConvexCCW(poly []geom.Point) bool {
	if !geom.IsConvexCCW(poly) {
		return false
	}
	m := len(poly)
	for k := range poly {
		for i := 2; i < m; i++ {
			if geom.Orient(poly[k], poly[(k+1)%m], poly[(k+i)%m]) != geom.CounterClockwise {
				return false
			}
		}
	}
	return true
}
