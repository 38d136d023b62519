package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); !got.Eq(Pt(4, -2)) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); !got.Eq(Pt(-2, 6)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(2, 4)) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
}

func TestDistMatchesDist2(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		d := a.Dist(b)
		d2 := a.Dist2(b)
		if math.IsInf(d, 0) || math.IsNaN(d) || math.IsInf(d2, 0) {
			return true // overflowing inputs are out of scope
		}
		return almostEq(d*d, d2, 1e-6*(1+d2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLexicographicOrder(t *testing.T) {
	if !Pt(0, 5).Less(Pt(1, 0)) {
		t.Error("x dominates")
	}
	if !Pt(1, 0).Less(Pt(1, 5)) {
		t.Error("y breaks ties")
	}
	if Pt(1, 1).Less(Pt(1, 1)) {
		t.Error("irreflexive")
	}
}

func TestMidpointAndLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(2, 4)
	if !Midpoint(a, b).Eq(Pt(1, 2)) {
		t.Error("midpoint")
	}
	if !Lerp(a, b, 0).Eq(a) || !Lerp(a, b, 1).Eq(b) {
		t.Error("lerp endpoints")
	}
	if !Lerp(a, b, 0.25).Eq(Pt(0.5, 1)) {
		t.Error("lerp quarter")
	}
}

func TestBoxBasics(t *testing.T) {
	b := BoundingBox([]Point{Pt(1, 1), Pt(-2, 3), Pt(0, -5)})
	if !b.Min.Eq(Pt(-2, -5)) || !b.Max.Eq(Pt(1, 3)) {
		t.Fatalf("box = %+v", b)
	}
	if b.Width() != 3 || b.Height() != 8 {
		t.Errorf("dims = %v x %v", b.Width(), b.Height())
	}
	if b.Circumference() != 22 {
		t.Errorf("circumference = %v", b.Circumference())
	}
	if !b.Contains(Pt(0, 0)) || b.Contains(Pt(2, 0)) {
		t.Error("contains")
	}
	if EmptyBox().Circumference() != 0 {
		t.Error("empty box circumference should be 0")
	}
	if !EmptyBox().Extend(Pt(1, 1)).Contains(Pt(1, 1)) {
		t.Error("extend empty")
	}
}

func TestBoxUnion(t *testing.T) {
	a := BoundingBox([]Point{Pt(0, 0), Pt(1, 1)})
	b := BoundingBox([]Point{Pt(2, -1), Pt(3, 0)})
	u := a.Union(b)
	if !u.Min.Eq(Pt(0, -1)) || !u.Max.Eq(Pt(3, 1)) {
		t.Errorf("union = %+v", u)
	}
	if a.Overlaps(b) || b.Overlaps(a) {
		t.Error("disjoint boxes overlap")
	}
	touching := BoundingBox([]Point{Pt(1, 1), Pt(2, 2)})
	if !a.Overlaps(touching) || !touching.Overlaps(a) {
		t.Error("boxes sharing a corner must overlap")
	}
	if !u.Overlaps(a) || !a.Overlaps(u) {
		t.Error("containment must overlap")
	}
	c := u.Corners()
	if !c[0].Eq(u.Min) || !c[2].Eq(u.Max) || PolygonArea(c[:]) <= 0 {
		t.Errorf("corners = %v, want counterclockwise from Min", c)
	}
}

func TestPathLength(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(3, 4), Pt(3, 8)}
	if got := PathLength(pts); !almostEq(got, 9, 1e-12) {
		t.Errorf("PathLength = %v", got)
	}
	if PathLength(nil) != 0 || PathLength(pts[:1]) != 0 {
		t.Error("degenerate paths")
	}
}

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 4))
	if s.Length() != 5 {
		t.Errorf("length = %v", s.Length())
	}
	if !s.Midpoint().Eq(Pt(1.5, 2)) {
		t.Error("midpoint")
	}
	if !s.Reverse().A.Eq(s.B) {
		t.Error("reverse")
	}
}

func TestBoundingBoxContainsAll(t *testing.T) {
	f := func(coords []float64) bool {
		if len(coords) < 2 {
			return true
		}
		var pts []Point
		for i := 0; i+1 < len(coords); i += 2 {
			x, y := coords[i], coords[i+1]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				return true
			}
			pts = append(pts, Pt(x, y))
		}
		b := BoundingBox(pts)
		for _, p := range pts {
			if !b.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
