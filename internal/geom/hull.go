package geom

import (
	"math"
	"sort"
)

// ConvexHull returns the convex hull of pts in counterclockwise order using
// Andrew's monotone chain. Collinear points on the hull boundary are
// discarded; the result has no repeated first/last point. Inputs with fewer
// than three distinct points return the distinct points sorted
// lexicographically.
func ConvexHull(pts []Point) []Point {
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	// Deduplicate.
	uniq := sorted[:0]
	for i, p := range sorted {
		if i == 0 || !p.Eq(sorted[i-1]) {
			uniq = append(uniq, p)
		}
	}
	sorted = uniq
	n := len(sorted)
	if n < 3 {
		out := make([]Point, n)
		copy(out, sorted)
		return out
	}

	hull := make([]Point, 0, 2*n)
	// Lower hull.
	for _, p := range sorted {
		for len(hull) >= 2 && Orient(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := sorted[i]
		for len(hull) >= lower && Orient(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// IsConvexCCW reports whether poly is a strictly convex polygon listed in
// counterclockwise order. Polygons with fewer than 3 vertices report false.
func IsConvexCCW(poly []Point) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		a, b, c := poly[i], poly[(i+1)%n], poly[(i+2)%n]
		if Orient(a, b, c) != CounterClockwise {
			return false
		}
	}
	return true
}

// PointInConvex reports whether p lies inside or on the boundary of the
// convex polygon poly given in counterclockwise order.
func PointInConvex(p Point, poly []Point) bool {
	n := len(poly)
	if n == 0 {
		return false
	}
	if n == 1 {
		return p.Eq(poly[0])
	}
	if n == 2 {
		return OnSegment(p, Seg(poly[0], poly[1]))
	}
	for i := 0; i < n; i++ {
		if Orient(poly[i], poly[(i+1)%n], p) == Clockwise {
			return false
		}
	}
	return true
}

// PointStrictlyInConvex reports whether p lies strictly inside the convex
// polygon poly given in counterclockwise order (boundary excluded).
func PointStrictlyInConvex(p Point, poly []Point) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		if Orient(poly[i], poly[(i+1)%n], p) != CounterClockwise {
			return false
		}
	}
	return true
}

// PointInPolygon reports whether p is inside the simple polygon poly
// (arbitrary orientation) by the even-odd crossing rule. Boundary points
// count as inside. The answer is "crossed an odd number of times, or on an
// edge", so the cheap crossing count runs first and the exact on-edge test
// only for points it leaves outside.
func PointInPolygon(p Point, poly []Point) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := poly[i], poly[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) {
			xint := (pj.X-pi.X)*(p.Y-pi.Y)/(pj.Y-pi.Y) + pi.X
			if p.X < xint {
				inside = !inside
			}
		}
		j = i
	}
	if inside {
		return true
	}
	for i := 0; i < n; i++ {
		if OnSegment(p, Seg(poly[i], poly[(i+1)%n])) {
			return true
		}
	}
	return false
}

// SegmentIntersectsPolygon reports whether segment s properly crosses any
// edge of the polygon, or has an interior point strictly inside the polygon.
// Segments that merely touch the boundary (e.g. share a vertex) do not count.
// This is the visibility test: two points are visible when the segment
// between them does not intersect the polygon in this sense. Each vertex's
// side of s is computed once and shared by the two edges that meet there.
func SegmentIntersectsPolygon(s Segment, poly []Point) bool {
	n := len(poly)
	if n > 0 {
		first := Orient(s.A, s.B, poly[0])
		oi := first
		for i := 0; i < n; i++ {
			oj := first
			if i+1 < n {
				oj = Orient(s.A, s.B, poly[i+1])
			}
			if ProperlyIntersectSides(s, Seg(poly[i], poly[(i+1)%n]), oi, oj) {
				return true
			}
			oi = oj
		}
	}
	// No proper crossing: the segment is either entirely outside (possibly
	// grazing) or passes through the interior via vertices. Sample interior
	// points of the segment.
	for _, t := range []float64{0.5, 0.25, 0.75} {
		m := Lerp(s.A, s.B, t)
		if PointStrictlyInSimple(m, poly) {
			return true
		}
	}
	return false
}

// boundaryTol is the distance below which a point counts as lying on a
// polygon boundary. Computed midpoints of boundary segments (Lerp) land
// within machine epsilon of the segment but rarely exactly on it, so the
// strict-interior test must use a tolerance, not an exact collinearity test.
const boundaryTol = 1e-9

// PointStrictlyInSimple reports whether p is strictly inside the simple
// polygon poly; points on (or within boundaryTol of) the boundary are not
// strictly inside.
//
// The even-odd test runs first: most probes are outside, and it is cheaper
// than measuring the distance to every edge. Each distance is measured only
// when no coordinate of the offset already exceeds the tolerance: the
// distance is math.Hypot of that offset, and Hypot returns
// max·√(1+(min/max)²), never less than the larger coordinate (a NaN offset
// fails the cheap test and reaches Hypot), so the answer is unchanged.
func PointStrictlyInSimple(p Point, poly []Point) bool {
	if !PointInPolygon(p, poly) {
		return false
	}
	n := len(poly)
	for i := 0; i < n; i++ {
		q := closestOnSegment(p, poly[i], poly[(i+1)%n])
		dx, dy := p.X-q.X, p.Y-q.Y
		if math.Abs(dx) > boundaryTol || math.Abs(dy) > boundaryTol {
			continue
		}
		if math.Hypot(dx, dy) <= boundaryTol {
			return false
		}
	}
	return true
}

// DistPointSegment returns the Euclidean distance from p to the closed
// segment ab.
func DistPointSegment(p, a, b Point) float64 {
	return p.Dist(closestOnSegment(p, a, b))
}

// closestOnSegment returns the point of the closed segment ab nearest p (a
// when the segment is a point).
func closestOnSegment(p, a, b Point) Point {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return a
	}
	t := p.Sub(a).Dot(ab) / den
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return a.Add(ab.Scale(t))
}

// PolygonArea returns the signed area of the polygon: positive when the
// vertices are in counterclockwise order.
func PolygonArea(poly []Point) float64 {
	n := len(poly)
	sum := 0.0
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += poly[i].Cross(poly[j])
	}
	return sum / 2
}

// PolygonPerimeter returns the total boundary length of the polygon. This is
// the P(h) quantity of Theorem 1.2.
func PolygonPerimeter(poly []Point) float64 {
	n := len(poly)
	total := 0.0
	for i := 0; i < n; i++ {
		total += poly[i].Dist(poly[(i+1)%n])
	}
	return total
}

// LocallyConvexHull returns the locally convex hull (Definition 4.1) of a
// hole-boundary cycle: the subsequence obtained by repeatedly removing a
// vertex v whose neighbours u, w in the current cycle satisfy both
// ∠(u,v,w) ≥ 180° (reflex or straight with respect to the hole interior on
// the left) and ‖uw‖ ≤ unit. The result always keeps the vertices of the
// (global) convex hull of the cycle.
func LocallyConvexHull(cycle []Point, unit float64) []Point {
	n := len(cycle)
	if n <= 3 {
		out := make([]Point, n)
		copy(out, cycle)
		return out
	}
	// Work on an index ring with deletion flags; iterate to fixpoint.
	cur := make([]Point, n)
	copy(cur, cycle)
	// Ensure counterclockwise orientation so that "≥180°" has a consistent
	// meaning (interior angle measured on the left side of the walk).
	if PolygonArea(cur) < 0 {
		for i, j := 0, len(cur)-1; i < j; i, j = i+1, j-1 {
			cur[i], cur[j] = cur[j], cur[i]
		}
	}
	for {
		removed := false
		for i := 0; len(cur) > 3 && i < len(cur); i++ {
			u := cur[(i-1+len(cur))%len(cur)]
			v := cur[i]
			w := cur[(i+1)%len(cur)]
			// A vertex is removable when the walk makes a non-left turn at v
			// (so v is not locally convex) and the shortcut uw stays within
			// the communication range.
			if Orient(u, v, w) != CounterClockwise && u.Dist(w) <= unit {
				cur = append(cur[:i], cur[i+1:]...)
				removed = true
				i--
			}
		}
		if !removed {
			return cur
		}
	}
}

// UpperTangent returns indices (i, j) such that the line hullA[i]–hullB[j] is
// the upper tangent of the two disjoint convex hulls (both CCW, with hullA
// entirely left of hullB in x): every vertex of both hulls lies on or below
// the tangent line. Used by the distributed hull merge.
func UpperTangent(hullA, hullB []Point) (int, int) {
	i := rightmostIndex(hullA)
	j := leftmostIndex(hullB)
	// A point P is above the directed line A[i]→B[j] (which points rightward,
	// since A is left of B) exactly when Orient(A[i], B[j], P) is CCW.
	// Advance each endpoint while its hull still has a vertex above the line.
	// The guard bounds total work for safety on degenerate inputs.
	for guard := 0; guard <= 2*(len(hullA)+len(hullB)); guard++ {
		moved := false
		for len(hullA) > 1 && Orient(hullA[i], hullB[j], hullA[ccwNext(i, len(hullA))]) == CounterClockwise {
			i = ccwNext(i, len(hullA))
			moved = true
		}
		for len(hullB) > 1 && Orient(hullA[i], hullB[j], hullB[cwNext(j, len(hullB))]) == CounterClockwise {
			j = cwNext(j, len(hullB))
			moved = true
		}
		if !moved {
			break
		}
	}
	return i, j
}

// LowerTangent returns indices (i, j) such that hullA[i]–hullB[j] is the
// lower tangent of two disjoint convex hulls (both CCW, hullA left of hullB):
// every vertex of both hulls lies on or above the tangent line.
func LowerTangent(hullA, hullB []Point) (int, int) {
	i := rightmostIndex(hullA)
	j := leftmostIndex(hullB)
	// A point P is below the directed line A[i]→B[j] exactly when
	// Orient(A[i], B[j], P) is clockwise.
	for guard := 0; guard <= 2*(len(hullA)+len(hullB)); guard++ {
		moved := false
		for len(hullA) > 1 && Orient(hullA[i], hullB[j], hullA[cwNext(i, len(hullA))]) == Clockwise {
			i = cwNext(i, len(hullA))
			moved = true
		}
		for len(hullB) > 1 && Orient(hullA[i], hullB[j], hullB[ccwNext(j, len(hullB))]) == Clockwise {
			j = ccwNext(j, len(hullB))
			moved = true
		}
		if !moved {
			break
		}
	}
	return i, j
}

func ccwNext(i, n int) int { return (i + 1) % n }
func cwNext(i, n int) int  { return (i - 1 + n) % n }

func rightmostIndex(hull []Point) int {
	best := 0
	for i, p := range hull {
		if p.X > hull[best].X || (p.X == hull[best].X && p.Y > hull[best].Y) {
			best = i
		}
	}
	return best
}

func leftmostIndex(hull []Point) int {
	best := 0
	for i, p := range hull {
		if p.X < hull[best].X || (p.X == hull[best].X && p.Y < hull[best].Y) {
			best = i
		}
	}
	return best
}

// MergeHulls merges two disjoint convex hulls (both CCW, hullA strictly left
// of hullB in x: max x of A < min x of B) into the convex hull of their
// union using tangent lines. This mirrors the per-dimension merge step of
// the distributed Miller–Stout style hull protocol: each merge is O(|A|+|B|)
// work but only O(1) communication rounds when hull descriptions travel in
// single messages.
func MergeHulls(hullA, hullB []Point) []Point {
	if len(hullA) == 0 {
		out := make([]Point, len(hullB))
		copy(out, hullB)
		return out
	}
	if len(hullB) == 0 {
		out := make([]Point, len(hullA))
		copy(out, hullA)
		return out
	}
	if len(hullA) < 3 || len(hullB) < 3 {
		// Degenerate hulls: fall back to recomputing from scratch.
		all := make([]Point, 0, len(hullA)+len(hullB))
		all = append(all, hullA...)
		all = append(all, hullB...)
		return ConvexHull(all)
	}
	ui, uj := UpperTangent(hullA, hullB)
	li, lj := LowerTangent(hullA, hullB)

	out := make([]Point, 0, len(hullA)+len(hullB))
	// Walk A counterclockwise from the lower-tangent endpoint to the
	// upper-tangent endpoint, then B counterclockwise from upper to lower.
	for i := ui; ; i = ccwNext(i, len(hullA)) {
		out = append(out, hullA[i])
		if i == li {
			break
		}
	}
	for j := lj; ; j = ccwNext(j, len(hullB)) {
		out = append(out, hullB[j])
		if j == uj {
			break
		}
	}
	// Numerical safety: the tangent walk can retain collinear or interior
	// points for near-degenerate inputs; a final monotone-chain pass over the
	// candidate vertices guarantees a correct hull while keeping the merge's
	// communication pattern intact.
	return ConvexHull(out)
}
