package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The ref* predicates are the earlier bodies of the five polygon predicates
// that now run their cheap tests first. Each calls only the others, so a
// reference answer never passes through the reordered code.

func refSegmentIntersectsPolygon(s Segment, poly []Point) bool {
	n := len(poly)
	for i := 0; i < n; i++ {
		e := Seg(poly[i], poly[(i+1)%n])
		if SegmentsProperlyIntersect(s, e) {
			return true
		}
	}
	for _, t := range []float64{0.5, 0.25, 0.75} {
		if refPointStrictlyInSimple(Lerp(s.A, s.B, t), poly) {
			return true
		}
	}
	return false
}

func refPointStrictlyInSimple(p Point, poly []Point) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		if DistPointSegment(p, poly[i], poly[(i+1)%n]) <= boundaryTol {
			return false
		}
	}
	return refPointInPolygon(p, poly)
}

func refPointInPolygon(p Point, poly []Point) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		if refOnSegment(p, Seg(poly[i], poly[(i+1)%n])) {
			return true
		}
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
	return inside
}

func refOnSegment(p Point, s Segment) bool {
	return Orient(s.A, s.B, p) == Collinear && refInSegmentBox(p, s)
}

func refInSegmentBox(p Point, s Segment) bool {
	return math.Min(s.A.X, s.B.X) <= p.X && p.X <= math.Max(s.A.X, s.B.X) &&
		math.Min(s.A.Y, s.B.Y) <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)
}

// checkPolygonPredicates fails t when any of the five predicates disagrees
// with its reference on segment s, point p and polygon poly.
func checkPolygonPredicates(t testing.TB, s Segment, p Point, poly []Point) {
	t.Helper()
	if got, want := SegmentIntersectsPolygon(s, poly), refSegmentIntersectsPolygon(s, poly); got != want {
		t.Fatalf("SegmentIntersectsPolygon(%v, %v) = %v, reference %v", s, poly, got, want)
	}
	if got, want := PointStrictlyInSimple(p, poly), refPointStrictlyInSimple(p, poly); got != want {
		t.Fatalf("PointStrictlyInSimple(%v, %v) = %v, reference %v", p, poly, got, want)
	}
	if got, want := PointInPolygon(p, poly), refPointInPolygon(p, poly); got != want {
		t.Fatalf("PointInPolygon(%v, %v) = %v, reference %v", p, poly, got, want)
	}
	for i := range poly {
		e := Seg(poly[i], poly[(i+1)%len(poly)])
		if got, want := OnSegment(p, e), refOnSegment(p, e); got != want {
			t.Fatalf("OnSegment(%v, %v) = %v, reference %v", p, e, got, want)
		}
		if got, want := InSegmentBox(p, e), refInSegmentBox(p, e); got != want {
			t.Fatalf("InSegmentBox(%v, %v) = %v, reference %v", p, e, got, want)
		}
	}
	if got, want := OnSegment(p, s), refOnSegment(p, s); got != want {
		t.Fatalf("OnSegment(%v, %v) = %v, reference %v", p, s, got, want)
	}
}

// latticePolygons have integer or half-integer corners, so lattice points
// and segments meet them in exact collinear and on-vertex cases.
var latticePolygons = [][]Point{
	{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)},                     // unit square: vertex passes
	{Pt(1, 1), Pt(2, 1), Pt(2, 2), Pt(1, 2)},                     // touches the unit square at (1, 1)
	{Pt(3, 0), Pt(5, 0), Pt(5, 1), Pt(4, 1), Pt(4, 2), Pt(3, 2)}, // non-convex L
	{Pt(0, 3), Pt(1, 3), Pt(2, 3), Pt(2, 4), Pt(0, 4)},           // collinear boundary vertex
	{Pt(3, 3), Pt(6, 3), Pt(6, 3.5)},                             // thin sliver
	{Pt(0, 0), Pt(1, 0)},                                         // degenerate: two vertices
}

// TestPolygonPredicatesMatchReference checks the reordered predicates
// against their earlier bodies: every point and every segment between points
// of a quarter-integer lattice around the lattice polygons, random star
// polygons with random points and segments, points a few ulps either side of
// boundaryTol from an edge, and InSegmentBox on signed zeros, infinities and
// NaN.
func TestPolygonPredicatesMatchReference(t *testing.T) {
	var lattice []Point
	for x := -1.0; x <= 7; x += 0.25 {
		for y := -1.0; y <= 5; y += 0.25 {
			lattice = append(lattice, Pt(x, y))
		}
	}
	for _, poly := range latticePolygons {
		for i, p := range lattice {
			for j := i % 7; j < len(lattice); j += 7 {
				checkPolygonPredicates(t, Seg(p, lattice[j]), p, poly)
			}
		}
	}

	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		poly := randomStarPolygon(rng, 3+rng.Intn(10))
		for k := 0; k < 40; k++ {
			a := Pt(rng.Float64()*12-1, rng.Float64()*12-1)
			b := Pt(rng.Float64()*12-1, rng.Float64()*12-1)
			if k%4 == 0 { // from a vertex, so segments graze and pass corners
				a = poly[rng.Intn(len(poly))]
			}
			checkPolygonPredicates(t, Seg(a, b), Lerp(a, b, rng.Float64()), poly)
		}
	}

	// Points within a few ulps of boundaryTol from an axis-aligned edge and
	// from a diagonal one, inside and outside the triangle: where the
	// cheap-first distance test in PointStrictlyInSimple meets math.Hypot.
	tri := []Point{Pt(0, 0), Pt(1, 0), Pt(0, 1)}
	near := []float64{boundaryTol}
	for k, up, down := 0, boundaryTol, boundaryTol; k < 4; k++ {
		up, down = math.Nextafter(up, 1), math.Nextafter(down, 0)
		near = append(near, up, down)
	}
	for _, d := range near {
		e := d / math.Sqrt2
		for _, p := range []Point{
			Pt(0.25, d), Pt(0.25, -d), Pt(d, 0.75), Pt(-d, 0.75), // axis-aligned edges
			Pt(0.5-e, 0.5-e), Pt(0.5+e, 0.5+e), Pt(0.3-e, 0.7-d), Pt(0.7-d, 0.3-e), // the diagonal
			Pt(d, d), Pt(1-d, d), // next to corners
		} {
			checkPolygonPredicates(t, Seg(p, Pt(0.1, 0.1)), p, tri)
		}
	}

	zero, negZero := 0.0, math.Copysign(0, -1)
	specials := []float64{zero, negZero, 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, px := range specials {
		for _, ax := range specials {
			for _, bx := range specials {
				for _, y := range []float64{zero, negZero, math.NaN()} {
					p, s := Pt(px, y), Seg(Pt(ax, y), Pt(bx, zero))
					if got, want := InSegmentBox(p, s), refInSegmentBox(p, s); got != want {
						t.Fatalf("InSegmentBox(%v, %v) = %v, reference %v", p, s, got, want)
					}
				}
			}
		}
	}
}

// FuzzPolygonPredicates checks the reordered predicates against their
// references on a fuzzed quadrilateral (simple or not) and on the lattice
// polygons, with segments and points drawn from its corners. NaN and ±Inf
// make the exact orientation fallback panic, and inputs are kept to 10⁹ in
// magnitude, so both are skipped.
func FuzzPolygonPredicates(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0)
	f.Add(-10.0, -10.0, 1.0, 1.0, 0.5, 0.5, 2.0, 0.0)
	f.Add(0.0, 0.0, 2.0, 0.0, 2.0, 1e-9, 0.0, 1e-9)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		a, b, c, d := Pt(ax, ay), Pt(bx, by), Pt(cx, cy), Pt(dx, dy)
		quad := []Point{a, b, c, d}
		for _, poly := range append([][]Point{quad}, latticePolygons...) {
			checkPolygonPredicates(t, Seg(a, b), c, poly)
			checkPolygonPredicates(t, Seg(c, d), Midpoint(a, b), poly)
			checkPolygonPredicates(t, Seg(a, c), d, poly)
		}
	})
}
