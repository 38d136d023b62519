package geom

import (
	"math"
	"math/big"
)

// Orientation classifies the turn formed by three points.
type Orientation int

// Orientation values. CCW means c lies to the left of the directed line a→b.
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
)

func (o Orientation) String() string {
	switch o {
	case Clockwise:
		return "clockwise"
	case CounterClockwise:
		return "counterclockwise"
	default:
		return "collinear"
	}
}

// orientErrBound is the relative rounding-error bound for the 2x2 orientation
// determinant: (3 + 16ε)ε per Shewchuk's analysis; we use a slightly larger
// constant to stay conservative.
const orientErrBound = 4.0 * (1.0e-16)

// orientMinMag is the least magnitude at which the relative bound holds. A
// product that underflows into the subnormals is rounded by up to 2⁻¹⁰⁷⁵,
// an absolute error the relative bound does not cover; from 2⁻¹⁰⁰⁰ up the
// bound's slack over (3 + 16ε)ε covers it many times over.
const orientMinMag = 0x1p-1000

// Orient returns the orientation of the ordered triple (a, b, c): whether c
// is to the left of (counterclockwise), to the right of (clockwise), or on
// the directed line a→b. The float64 fast path falls back to exact rational
// arithmetic when the determinant is within its rounding-error bound, or
// when a product may have underflowed. Both products are exactly zero when
// each has a zero factor (a float difference is zero only for equal
// operands), the common collinear case, which needs no fallback.
func Orient(a, b, c Point) Orientation {
	detLeft := (a.X - c.X) * (b.Y - c.Y)
	detRight := (a.Y - c.Y) * (b.X - c.X)
	det := detLeft - detRight
	mag := math.Abs(detLeft) + math.Abs(detRight)
	if math.Abs(det) > orientErrBound*mag && mag >= orientMinMag {
		if det > 0 {
			return CounterClockwise
		}
		return Clockwise
	}
	if mag == 0 && (a.X == c.X || b.Y == c.Y) && (a.Y == c.Y || b.X == c.X) {
		return Collinear
	}
	return orientExact(a, b, c)
}

// exactPrec is the big.Float precision at which orientExact rounds nothing.
// A float64 is an integer multiple of 2⁻¹⁰⁷⁴ below 2¹⁰²⁴ in magnitude, so
// the difference of two fits in 2 099 bits and the product of two such
// differences in twice that. Bits are only paid for where an operand has
// them: coordinates of similar magnitude cost what they did at 200 bits,
// which was exact only while all six coordinates spanned under about 2⁷⁰.
const exactPrec = 2 * 2099

func orientExact(a, b, c Point) Orientation {
	ax, ay := big.NewFloat(a.X), big.NewFloat(a.Y)
	bx, by := big.NewFloat(b.X), big.NewFloat(b.Y)
	cx, cy := big.NewFloat(c.X), big.NewFloat(c.Y)
	for _, f := range []*big.Float{ax, ay, bx, by, cx, cy} {
		f.SetPrec(exactPrec)
	}
	l := new(big.Float).Mul(new(big.Float).Sub(ax, cx), new(big.Float).Sub(by, cy))
	r := new(big.Float).Mul(new(big.Float).Sub(ay, cy), new(big.Float).Sub(bx, cx))
	switch l.Cmp(r) {
	case 1:
		return CounterClockwise
	case -1:
		return Clockwise
	}
	return Collinear
}

// inCircleErrBound is the conservative relative error bound for the 4x4
// in-circle determinant fast path.
const inCircleErrBound = 1.2e-14

// InCircle reports whether d lies strictly inside the circle through a, b, c.
// The triple (a, b, c) may be in either orientation; the test is normalized
// internally. Points exactly on the circle report false.
func InCircle(a, b, c, d Point) bool {
	o := Orient(a, b, c)
	if o == Collinear {
		return false
	}
	if o == Clockwise {
		b, c = c, b
	}
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y

	ad2 := adx*adx + ady*ady
	bd2 := bdx*bdx + bdy*bdy
	cd2 := cdx*cdx + cdy*cdy

	det := ad2*(bdx*cdy-bdy*cdx) + bd2*(cdx*ady-cdy*adx) + cd2*(adx*bdy-ady*bdx)
	mag := ad2*(math.Abs(bdx*cdy)+math.Abs(bdy*cdx)) +
		bd2*(math.Abs(cdx*ady)+math.Abs(cdy*adx)) +
		cd2*(math.Abs(adx*bdy)+math.Abs(ady*bdx))
	if math.Abs(det) > inCircleErrBound*mag {
		return det > 0
	}
	return inCircleExact(a, b, c, d) > 0
}

// inCircleExact evaluates the in-circle determinant with exact rational
// arithmetic; positive means d is inside circle(a,b,c) with (a,b,c) CCW.
func inCircleExact(a, b, c, d Point) int {
	rat := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	adx := new(big.Rat).Sub(rat(a.X), rat(d.X))
	ady := new(big.Rat).Sub(rat(a.Y), rat(d.Y))
	bdx := new(big.Rat).Sub(rat(b.X), rat(d.X))
	bdy := new(big.Rat).Sub(rat(b.Y), rat(d.Y))
	cdx := new(big.Rat).Sub(rat(c.X), rat(d.X))
	cdy := new(big.Rat).Sub(rat(c.Y), rat(d.Y))

	sq := func(x, y *big.Rat) *big.Rat {
		return new(big.Rat).Add(new(big.Rat).Mul(x, x), new(big.Rat).Mul(y, y))
	}
	ad2, bd2, cd2 := sq(adx, ady), sq(bdx, bdy), sq(cdx, cdy)

	cross := func(x1, y1, x2, y2 *big.Rat) *big.Rat {
		return new(big.Rat).Sub(new(big.Rat).Mul(x1, y2), new(big.Rat).Mul(y1, x2))
	}
	t1 := new(big.Rat).Mul(ad2, cross(bdx, bdy, cdx, cdy))
	t2 := new(big.Rat).Mul(bd2, cross(cdx, cdy, adx, ady))
	t3 := new(big.Rat).Mul(cd2, cross(adx, ady, bdx, bdy))
	sum := new(big.Rat).Add(new(big.Rat).Add(t1, t2), t3)
	return sum.Sign()
}

// Circumcenter returns the center of the circle through a, b, c and true, or
// the zero point and false when the points are collinear.
func Circumcenter(a, b, c Point) (Point, bool) {
	d := 2 * (a.X*(b.Y-c.Y) + b.X*(c.Y-a.Y) + c.X*(a.Y-b.Y))
	if d == 0 {
		return Point{}, false
	}
	a2 := a.X*a.X + a.Y*a.Y
	b2 := b.X*b.X + b.Y*b.Y
	c2 := c.X*c.X + c.Y*c.Y
	ux := (a2*(b.Y-c.Y) + b2*(c.Y-a.Y) + c2*(a.Y-b.Y)) / d
	uy := (a2*(c.X-b.X) + b2*(a.X-c.X) + c2*(b.X-a.X)) / d
	return Point{ux, uy}, true
}

// InDiametralCircle reports whether p lies strictly inside the circle with
// diameter ab. This is the Gabriel-edge test of Definition 2.3(2).
func InDiametralCircle(a, b, p Point) bool {
	m := Midpoint(a, b)
	r2 := a.Dist2(b) / 4
	return m.Dist2(p) < r2*(1-1e-12)
}

// SegmentsProperlyIntersect reports whether segments s and t cross at a point
// interior to both. Shared endpoints and touchings do not count.
func SegmentsProperlyIntersect(s, t Segment) bool {
	return ProperlyIntersectSides(s, t, Orient(s.A, s.B, t.A), Orient(s.A, s.B, t.B))
}

// ProperlyIntersectSides is SegmentsProperlyIntersect(s, t) for a caller that
// already holds o1 = Orient(s.A, s.B, t.A) and o2 = Orient(s.A, s.B, t.B),
// say from classifying every vertex of a polygon against s once. It tests
// t's line only when t's ends lie strictly on opposite sides of s.
func ProperlyIntersectSides(s, t Segment, o1, o2 Orientation) bool {
	if o1 == o2 || o1 == Collinear || o2 == Collinear {
		return false
	}
	o3 := Orient(t.A, t.B, s.A)
	o4 := Orient(t.A, t.B, s.B)
	return o3 != o4 && o3 != Collinear && o4 != Collinear
}

// OnSegment reports whether p lies on the closed segment s (including
// endpoints), using exact orientation for the collinearity test. The box
// test runs first: it is a few comparisons, and most points fail it.
func OnSegment(p Point, s Segment) bool {
	return InSegmentBox(p, s) && Orient(s.A, s.B, p) == Collinear
}

// InSegmentBox reports whether p lies in the closed bounding box of s: for a
// point already known to be collinear with s, the rest of OnSegment.
func InSegmentBox(p Point, s Segment) bool {
	return between(p.X, s.A.X, s.B.X) && between(p.Y, s.A.Y, s.B.Y)
}

// between reports whether x lies in the closed interval spanned by a and b.
// It answers as math.Min(a, b) <= x && x <= math.Max(a, b) does on every
// input: a NaN fails a comparison either way, and -0 compares equal to +0.
func between(x, a, b float64) bool {
	if a > b {
		a, b = b, a
	}
	return a <= x && x <= b
}

// SegmentsIntersect reports whether the closed segments share any point,
// including endpoint touchings and collinear overlap.
func SegmentsIntersect(s, t Segment) bool {
	if SegmentsProperlyIntersect(s, t) {
		return true
	}
	return OnSegment(t.A, s) || OnSegment(t.B, s) || OnSegment(s.A, t) || OnSegment(s.B, t)
}

// SegmentIntersection returns the intersection point of the supporting lines
// of s and t and true if the lines are not parallel; the caller is expected
// to have established that the segments actually cross.
func SegmentIntersection(s, t Segment) (Point, bool) {
	r := s.B.Sub(s.A)
	q := t.B.Sub(t.A)
	den := r.Cross(q)
	if den == 0 {
		return Point{}, false
	}
	u := t.A.Sub(s.A).Cross(q) / den
	return s.A.Add(r.Scale(u)), true
}

// TurnAngle returns the signed turn angle at b when walking a→b→c, in
// (-π, π]. Positive means a left (counterclockwise) turn. The distributed
// hole-detection protocol of Section 5.4 sums these along a boundary: the
// total is +2π for a counterclockwise cycle and -2π for a clockwise one.
func TurnAngle(a, b, c Point) float64 {
	d1 := b.Sub(a)
	d2 := c.Sub(b)
	ang := d2.Angle() - d1.Angle()
	for ang <= -math.Pi {
		ang += 2 * math.Pi
	}
	for ang > math.Pi {
		ang -= 2 * math.Pi
	}
	return ang
}
