package delaunay

import (
	"math/rand"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

func randomPts(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*w, rng.Float64()*h)
	}
	return pts
}

func TestTriangulateSquare(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	tr := Triangulate(pts)
	tris := tr.Triangles()
	if len(tris) != 2 {
		t.Fatalf("square should have 2 triangles, got %d: %v", len(tris), tris)
	}
	if got := len(tr.Edges()); got != 5 {
		t.Errorf("square triangulation has %d edges, want 5", got)
	}
}

func TestTriangulateEmptyCircleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		pts := randomPts(rng, 60, 10, 10)
		tr := Triangulate(pts)
		tris := tr.Triangles()
		for _, tri := range tris {
			a, b, c := pts[tri[0]], pts[tri[1]], pts[tri[2]]
			for i, p := range pts {
				if i == tri[0] || i == tri[1] || i == tri[2] {
					continue
				}
				if geom.InCircle(a, b, c, p) {
					t.Fatalf("point %d=%v inside circumcircle of triangle %v", i, p, tri)
				}
			}
		}
	}
}

func TestTriangulateCountFormula(t *testing.T) {
	// For points in general position: triangles = 2n - 2 - h, edges = 3n - 3 - h,
	// where h is the number of hull vertices.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(100)
		pts := randomPts(rng, n, 100, 100)
		tr := Triangulate(pts)
		h := len(geom.ConvexHull(pts))
		if got, want := len(tr.Triangles()), 2*n-2-h; got != want {
			t.Fatalf("n=%d h=%d: triangles=%d want %d", n, h, got, want)
		}
		if got, want := len(tr.Edges()), 3*n-3-h; got != want {
			t.Fatalf("n=%d h=%d: edges=%d want %d", n, h, got, want)
		}
	}
}

func TestTriangulateSmallInputs(t *testing.T) {
	if got := Triangulate(nil).Triangles(); len(got) != 0 {
		t.Error("empty input")
	}
	if got := Triangulate([]geom.Point{geom.Pt(1, 2)}).Triangles(); len(got) != 0 {
		t.Error("single point has no triangles")
	}
	two := Triangulate([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)})
	if len(two.Triangles()) != 0 {
		t.Error("two points have no triangles")
	}
	tri := Triangulate([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)})
	if len(tri.Triangles()) != 1 {
		t.Errorf("three points give one triangle, got %v", tri.Triangles())
	}
}

func TestTriangulateDuplicatePoints(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1),
		geom.Pt(0, 0), // duplicate
	}
	tr := Triangulate(pts)
	if len(tr.Triangles()) != 1 {
		t.Errorf("duplicates must be skipped, got %v", tr.Triangles())
	}
}

func TestTriangulationDelaunayGraphConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := randomPts(rng, 100, 10, 10)
	tr := Triangulate(pts)
	if !NewPlanarGraph(pts, tr.Edges()).Connected() {
		t.Error("the Delaunay graph is not connected")
	}
}

func TestTriangulationSpannerSample(t *testing.T) {
	// Delaunay graphs are 1.998-spanners of the complete Euclidean graph
	// (Xia, Theorem 2.8). Sample node pairs and verify the ratio.
	rng := rand.New(rand.NewSource(31))
	pts := randomPts(rng, 150, 10, 10)
	tr := Triangulate(pts)
	g := NewPlanarGraph(pts, tr.Edges())
	for trial := 0; trial < 50; trial++ {
		s := rng.Intn(len(pts))
		d := rng.Intn(len(pts))
		if s == d {
			continue
		}
		_, plen, ok := g.ShortestPath(udg.NodeID(s), udg.NodeID(d))
		if !ok {
			t.Fatalf("Delaunay graph must be connected")
		}
		euclid := pts[s].Dist(pts[d])
		if plen > 1.998*euclid+1e-9 {
			t.Fatalf("spanner ratio %v exceeds 1.998", plen/euclid)
		}
	}
}

func BenchmarkTriangulate1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPts(rng, 1000, 30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Triangulate(pts)
	}
}
