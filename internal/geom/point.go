// Package geom provides the computational-geometry substrate for the hybrid
// routing library: points, segments, polygons, robust orientation and
// in-circle predicates with exact big.Rat fallback, convex hulls (sequential
// and tangent-based merging used by the distributed hull protocol), locally
// convex hulls (Definition 4.1 of the paper), visibility tests, and bounding
// boxes.
//
// All coordinates are float64. The predicates use a floating-point fast path
// with a conservative error bound; when the result is too close to zero to
// trust, they fall back to exact rational arithmetic, so the package behaves
// correctly even on adversarial inputs from property-based tests.
package geom

import (
	"fmt"
	"math"
)

// Point is a point in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// String renders the point with enough precision for debugging.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Add returns p + q as vectors.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q as vectors.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Eq reports whether p and q are exactly equal.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// Less orders points lexicographically by (X, Y). It is the canonical order
// used by hull construction and by the distributed sort.
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// Angle returns the polar angle of the vector p in (-π, π].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// Midpoint returns the midpoint of p and q.
func Midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Lerp returns p + t·(q-p).
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Segment is a closed line segment between two points.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the midpoint of the segment.
func (s Segment) Midpoint() Point { return Midpoint(s.A, s.B) }

// Reverse returns the segment with endpoints swapped.
func (s Segment) Reverse() Segment { return Segment{s.B, s.A} }

// Box is an axis-aligned bounding box.
type Box struct {
	Min, Max Point
}

// EmptyBox returns a box that contains nothing; extending it with any point
// yields a point box.
func EmptyBox() Box {
	inf := math.Inf(1)
	return Box{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// Extend grows the box to contain p.
func (b Box) Extend(p Point) Box {
	if p.X < b.Min.X {
		b.Min.X = p.X
	}
	if p.Y < b.Min.Y {
		b.Min.Y = p.Y
	}
	if p.X > b.Max.X {
		b.Max.X = p.X
	}
	if p.Y > b.Max.Y {
		b.Max.Y = p.Y
	}
	return b
}

// Union returns the smallest box containing both b and c.
func (b Box) Union(c Box) Box { return b.Extend(c.Min).Extend(c.Max) }

// Contains reports whether p lies in the closed box.
func (b Box) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Overlaps reports whether the closed boxes b and c share a point; touching
// sides and containment both count.
func (b Box) Overlaps(c Box) bool {
	return b.Min.X <= c.Max.X && c.Min.X <= b.Max.X &&
		b.Min.Y <= c.Max.Y && c.Min.Y <= b.Max.Y
}

// Corners returns the four corners of the box in counterclockwise order,
// starting at Min.
func (b Box) Corners() [4]Point {
	return [4]Point{b.Min, {b.Max.X, b.Min.Y}, b.Max, {b.Min.X, b.Max.Y}}
}

// Width returns the horizontal extent of the box.
func (b Box) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the vertical extent of the box.
func (b Box) Height() float64 { return b.Max.Y - b.Min.Y }

// Circumference returns the perimeter length of the box. This is the L(c)
// quantity of Theorem 1.2: the circumference of the minimum bounding box of
// a convex hull.
func (b Box) Circumference() float64 {
	if b.Max.X < b.Min.X || b.Max.Y < b.Min.Y {
		return 0
	}
	return 2 * (b.Width() + b.Height())
}

// Center returns the center point of the box.
func (b Box) Center() Point { return Midpoint(b.Min, b.Max) }

// BoundingBox returns the minimum axis-aligned bounding box of pts.
func BoundingBox(pts []Point) Box {
	b := EmptyBox()
	for _, p := range pts {
		b = b.Extend(p)
	}
	return b
}

// PathLength returns the total Euclidean length of the polyline through pts.
func PathLength(pts []Point) float64 {
	total := 0.0
	for i := 1; i < len(pts); i++ {
		total += pts[i-1].Dist(pts[i])
	}
	return total
}
