package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrientBasic(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if Orient(a, b, Pt(0, 1)) != CounterClockwise {
		t.Error("left point should be CCW")
	}
	if Orient(a, b, Pt(0, -1)) != Clockwise {
		t.Error("right point should be CW")
	}
	if Orient(a, b, Pt(2, 0)) != Collinear {
		t.Error("collinear point")
	}
}

func TestOrientAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		for _, v := range []float64{ax, ay, bx, by, cx, cy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		return Orient(a, b, c) == -Orient(b, a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrientCyclicInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Pt(rng.Float64(), rng.Float64())
		b := Pt(rng.Float64(), rng.Float64())
		c := Pt(rng.Float64(), rng.Float64())
		if Orient(a, b, c) != Orient(b, c, a) || Orient(b, c, a) != Orient(c, a, b) {
			t.Fatalf("cyclic invariance fails for %v %v %v", a, b, c)
		}
	}
}

func TestOrientNearDegenerate(t *testing.T) {
	// Points nearly collinear; the exact fallback must decide consistently.
	a := Pt(0, 0)
	b := Pt(1e8, 1e8)
	c := Pt(1e8+1e-8, 1e8+1e-8)
	got := Orient(a, b, c)
	if got != Collinear {
		// c is on the line y=x only if representable; either way the result
		// of Orient and orientExact must agree.
		if got != orientExact(a, b, c) {
			t.Errorf("fast path disagrees with exact: %v vs %v", got, orientExact(a, b, c))
		}
	}
	// Truly collinear points with exact float coordinates.
	if Orient(Pt(0, 0), Pt(2, 2), Pt(1, 1)) != Collinear {
		t.Error("exact collinear not detected")
	}
}

// TestOrientExactAcrossMagnitudes pins the exact fallback on coordinates
// that span far more than a float64 mantissa. p = (2ᵉ, 1) lies just beyond
// the line x + y = 1, so every rotation of the triple ((1,0), (0,1), p) is
// clockwise and every swap counterclockwise. At 200 bits the fallback
// rounded 2⁻⁵¹³ − 1 to −1 and called some of them collinear.
func TestOrientExactAcrossMagnitudes(t *testing.T) {
	for _, e := range []int{-60, -200, -513, -1074} {
		p := Pt(math.Ldexp(1, e), 1)
		a, c := Pt(1, 0), Pt(0, 1)
		for _, tri := range [][3]Point{{a, c, p}, {c, p, a}, {p, a, c}} {
			if got := Orient(tri[0], tri[1], tri[2]); got != Clockwise {
				t.Errorf("2^%d: Orient%v = %v, want clockwise", e, tri, got)
			}
			if got := Orient(tri[1], tri[0], tri[2]); got != CounterClockwise {
				t.Errorf("2^%d: Orient(%v, %v, %v) = %v, want counterclockwise", e, tri[1], tri[0], tri[2], got)
			}
		}
	}
}

func TestInCircleSquare(t *testing.T) {
	a, b, c := Pt(0, 0), Pt(2, 0), Pt(0, 2)
	// Circle through these passes through (2,2); center (1,1), r=sqrt2.
	if !InCircle(a, b, c, Pt(1, 1)) {
		t.Error("center must be inside")
	}
	if InCircle(a, b, c, Pt(3, 3)) {
		t.Error("far point must be outside")
	}
	if InCircle(a, b, c, Pt(2, 2)) {
		t.Error("co-circular point must not be strictly inside")
	}
}

func TestInCircleOrientationIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := Pt(rng.Float64()*10, rng.Float64()*10)
		b := Pt(rng.Float64()*10, rng.Float64()*10)
		c := Pt(rng.Float64()*10, rng.Float64()*10)
		d := Pt(rng.Float64()*10, rng.Float64()*10)
		if InCircle(a, b, c, d) != InCircle(a, c, b, d) {
			t.Fatalf("in-circle depends on orientation: %v %v %v %v", a, b, c, d)
		}
	}
}

func TestInCircleAgainstCircumcenter(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		a := Pt(rng.Float64()*10, rng.Float64()*10)
		b := Pt(rng.Float64()*10, rng.Float64()*10)
		c := Pt(rng.Float64()*10, rng.Float64()*10)
		d := Pt(rng.Float64()*10, rng.Float64()*10)
		center, ok := Circumcenter(a, b, c)
		if !ok {
			continue
		}
		r := center.Dist(a)
		dd := center.Dist(d)
		if math.Abs(dd-r) < 1e-9*r {
			continue // too close to the boundary for the float reference
		}
		want := dd < r
		if got := InCircle(a, b, c, d); got != want {
			t.Fatalf("InCircle=%v want %v (r=%v d=%v)", got, want, r, dd)
		}
	}
}

func TestCircumcenterEquidistant(t *testing.T) {
	a, b, c := Pt(0, 0), Pt(4, 0), Pt(0, 6)
	center, ok := Circumcenter(a, b, c)
	if !ok {
		t.Fatal("not collinear")
	}
	if !almostEq(center.Dist(a), center.Dist(b), 1e-9) || !almostEq(center.Dist(b), center.Dist(c), 1e-9) {
		t.Errorf("circumcenter %v not equidistant", center)
	}
	if _, ok := Circumcenter(Pt(0, 0), Pt(1, 1), Pt(2, 2)); ok {
		t.Error("collinear points have no circumcenter")
	}
}

func TestInDiametralCircle(t *testing.T) {
	a, b := Pt(0, 0), Pt(2, 0)
	if !InDiametralCircle(a, b, Pt(1, 0.5)) {
		t.Error("point inside diametral circle")
	}
	if InDiametralCircle(a, b, Pt(1, 1.5)) {
		t.Error("point outside diametral circle")
	}
	if InDiametralCircle(a, b, Pt(1, 1)) {
		t.Error("boundary point is not strictly inside")
	}
}

func TestSegmentsProperlyIntersect(t *testing.T) {
	cross1 := Seg(Pt(0, 0), Pt(2, 2))
	cross2 := Seg(Pt(0, 2), Pt(2, 0))
	if !SegmentsProperlyIntersect(cross1, cross2) {
		t.Error("crossing segments")
	}
	shared := Seg(Pt(2, 2), Pt(3, 0))
	if SegmentsProperlyIntersect(cross1, shared) {
		t.Error("shared endpoint is not proper")
	}
	apart := Seg(Pt(5, 5), Pt(6, 6))
	if SegmentsProperlyIntersect(cross1, apart) {
		t.Error("disjoint segments")
	}
	touching := Seg(Pt(1, 1), Pt(5, 1)) // endpoint interior to cross1
	if SegmentsProperlyIntersect(cross1, touching) {
		t.Error("T-touching is not proper")
	}
}

func TestSegmentsIntersectIncludesTouching(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(2, 2))
	if !SegmentsIntersect(s, Seg(Pt(2, 2), Pt(3, 0))) {
		t.Error("shared endpoint counts for closed intersection")
	}
	if !SegmentsIntersect(s, Seg(Pt(1, 1), Pt(5, 1))) {
		t.Error("T-touching counts")
	}
	if SegmentsIntersect(s, Seg(Pt(3, 0), Pt(4, 0))) {
		t.Error("disjoint")
	}
	if !SegmentsIntersect(s, Seg(Pt(1, 1), Pt(3, 3))) {
		t.Error("collinear overlap counts")
	}
}

func TestSegmentIntersectionPoint(t *testing.T) {
	p, ok := SegmentIntersection(Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(0, 2), Pt(2, 0)))
	if !ok || !almostEq(p.X, 1, 1e-12) || !almostEq(p.Y, 1, 1e-12) {
		t.Errorf("intersection = %v ok=%v", p, ok)
	}
	if _, ok := SegmentIntersection(Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(0, 1), Pt(1, 1))); ok {
		t.Error("parallel lines have no intersection")
	}
}

func TestOnSegment(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 4))
	if !OnSegment(Pt(2, 2), s) || !OnSegment(Pt(0, 0), s) {
		t.Error("points on segment")
	}
	if OnSegment(Pt(5, 5), s) {
		t.Error("collinear beyond endpoint")
	}
	if OnSegment(Pt(2, 3), s) {
		t.Error("off the line")
	}
}

func TestTurnAngleSumOnPolygon(t *testing.T) {
	// Walking a CCW convex polygon, the turn angles sum to +2π; CW to -2π.
	// This is the distributed hole-detection invariant of Section 5.4.
	ccw := []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}
	sum := 0.0
	for i := range ccw {
		sum += TurnAngle(ccw[(i-1+len(ccw))%len(ccw)], ccw[i], ccw[(i+1)%len(ccw)])
	}
	if !almostEq(sum, 2*math.Pi, 1e-9) {
		t.Errorf("CCW turn sum = %v", sum)
	}
	cw := []Point{Pt(0, 0), Pt(0, 4), Pt(4, 4), Pt(4, 0)}
	sum = 0
	for i := range cw {
		sum += TurnAngle(cw[(i-1+len(cw))%len(cw)], cw[i], cw[(i+1)%len(cw)])
	}
	if !almostEq(sum, -2*math.Pi, 1e-9) {
		t.Errorf("CW turn sum = %v", sum)
	}
}

func TestTurnAngleSumOnRandomPolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(20)
		poly := randomStarPolygon(rng, n)
		sum := 0.0
		for i := range poly {
			sum += TurnAngle(poly[(i-1+len(poly))%len(poly)], poly[i], poly[(i+1)%len(poly)])
		}
		if !almostEq(sum, 2*math.Pi, 1e-6) {
			t.Fatalf("turn sum %v for star polygon with %d vertices", sum, n)
		}
	}
}

// randomStarPolygon builds a simple CCW polygon by sorting random points
// around their centroid (star-shaped, hence simple).
func randomStarPolygon(rng *rand.Rand, n int) []Point {
	type pa struct {
		p Point
		a float64
	}
	var c Point
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*10, rng.Float64()*10)
		c = c.Add(pts[i])
	}
	c = c.Scale(1 / float64(n))
	withA := make([]pa, n)
	for i, p := range pts {
		withA[i] = pa{p, p.Sub(c).Angle()}
	}
	for i := 0; i < n; i++ { // insertion sort by angle
		for j := i; j > 0 && withA[j].a < withA[j-1].a; j-- {
			withA[j], withA[j-1] = withA[j-1], withA[j]
		}
	}
	out := make([]Point, n)
	for i := range withA {
		out[i] = withA[i].p
	}
	return out
}

// TestOrientUnderflow pins Orient on products that underflow: p lies one
// subnormal ulp above the x-axis, so it is left of (0,0)→(1,0), yet each
// float product of the determinant rounds to zero. Before the guard the fast
// path read the zero products as exact and called p collinear.
func TestOrientUnderflow(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, c := range []struct {
		a, b, p Point
		want    Orientation
	}{
		{Pt(0, 0), Pt(1, 0), Pt(0.5, tiny), CounterClockwise},
		{Pt(0, 0), Pt(1, 0), Pt(0.5, -tiny), Clockwise},
		{Pt(0, 0), Pt(tiny, 0), Pt(0, tiny), CounterClockwise},
		{Pt(0, 0), Pt(tiny, tiny), Pt(2*tiny, 2*tiny), Collinear},
		{Pt(tiny, 0), Pt(0, tiny), Pt(0, 0), CounterClockwise},
	} {
		if got := Orient(c.a, c.b, c.p); got != c.want {
			t.Errorf("Orient(%v, %v, %v) = %v, want %v", c.a, c.b, c.p, got, c.want)
		}
		if got := Orient(c.b, c.a, c.p); got != -c.want {
			t.Errorf("Orient(%v, %v, %v) = %v, want %v", c.b, c.a, c.p, got, -c.want)
		}
	}
}
