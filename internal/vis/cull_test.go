package vis

import (
	"math"
	"testing"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

// visibleUnculled is the reference Visible: the plain loop over every
// obstacle, without the box cull.
func visibleUnculled(polys [][]geom.Point, a, b geom.Point) bool {
	s := geom.Seg(a, b)
	for _, poly := range polys {
		if geom.SegmentIntersectsPolygon(s, poly) {
			return false
		}
	}
	return true
}

// inObstacleUnculled is the reference PointInObstacle.
func inObstacleUnculled(polys [][]geom.Point, p geom.Point) bool {
	for _, poly := range polys {
		if geom.PointStrictlyInSimple(p, poly) {
			return true
		}
	}
	return false
}

// culled is what the differential checks need of Domain and Overlay.
type culled interface {
	Obstacles() [][]geom.Point
	Visible(a, b geom.Point) bool
	PointInObstacle(p geom.Point) bool
}

// checkVisible fails t when the culled Visible disagrees with the reference
// loop on segment ab.
func checkVisible(t testing.TB, name string, d culled, a, b geom.Point) {
	t.Helper()
	if got, want := d.Visible(a, b), visibleUnculled(d.Obstacles(), a, b); got != want {
		t.Fatalf("%s: Visible(%v, %v) = %v, unculled %v", name, a, b, got, want)
	}
}

// checkInObstacle fails t when the culled PointInObstacle disagrees with the
// reference loop on p.
func checkInObstacle(t testing.TB, name string, d culled, p geom.Point) {
	t.Helper()
	if got, want := d.PointInObstacle(p), inObstacleUnculled(d.Obstacles(), p); got != want {
		t.Fatalf("%s: PointInObstacle(%v) = %v, unculled %v", name, p, got, want)
	}
}

// latticeObstacles have integer or half-integer corners, so segments between
// lattice points meet their edges and corners in exactly collinear triples
// that take geom.Orient's exact path.
var latticeObstacles = [][]geom.Point{
	{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},                               // unit square: the vertex-pass case
	{geom.Pt(3, 0), geom.Pt(5, 0), geom.Pt(5, 1), geom.Pt(4, 1), geom.Pt(4, 2), geom.Pt(3, 2)}, // non-convex L
	{geom.Pt(0, 3), geom.Pt(2, 4), geom.Pt(1, 5)},                                              // slanted edges
	{geom.Pt(3, 3), geom.Pt(6, 3), geom.Pt(6, 3.5)},                                            // thin sliver
	{geom.Pt(-3, 4), geom.Pt(-1, 2), geom.Pt(-1, 4)},                                           // hypotenuse on the box diagonal
}

// edgeCases are segments at the cull's boundaries, against the unit square
// of latticeObstacles, whose widened box is [-m, 1+m]² for m = cullMargin.
func edgeCases() [][2]geom.Point {
	m := cullMargin
	return [][2]geom.Point{
		{geom.Pt(-1, 0.5), geom.Pt(-m, 0.5)},           // ends on a widened-box side
		{geom.Pt(0.5, 2), geom.Pt(0.5, 1+m)},           // ends on the top widened side
		{geom.Pt(-1, 0), geom.Pt(2, 0)},                // runs along an obstacle edge
		{geom.Pt(0.25, 1), geom.Pt(0.75, 1)},           // inside an obstacle edge
		{geom.Pt(-1, -m), geom.Pt(2, -m)},              // collinear with a box side
		{geom.Pt(-m, -2), geom.Pt(-m, 3)},              // collinear with the left box side
		{geom.Pt(-m-1, -m+1), geom.Pt(-m+1, -m-1)},     // through a box corner, outside
		{geom.Pt(-2, -2), geom.Pt(-m, -m)},             // ends on a box corner
		{geom.Pt(-1, 0.5), geom.Pt(0, 1)},              // ends on an obstacle corner
		{geom.Pt(2, 2), geom.Pt(1, 1)},                 // ends on an obstacle corner diagonally
		{geom.Pt(0, 0), geom.Pt(1, 1)},                 // corner to corner through the interior
		{geom.Pt(0, 0), geom.Pt(0, 0)},                 // degenerate, on a corner
		{geom.Pt(-10, -10), geom.Pt(1, 1)},             // vertex pass: enters at (0,0), leaves at (1,1)
		{geom.Pt(-0.1, 0.1005), geom.Pt(0.1005, -0.1)}, // shaves the (0,0) corner 5e-4 deep
		{geom.Pt(-1, 0.0005), geom.Pt(2, 0.0005)},      // crosses just above the bottom edge
		{geom.Pt(0.9995, -1), geom.Pt(0.9995, 2)},      // crosses just left of the right edge
		{geom.Pt(0.0005, 0.5), geom.Pt(0.5, 0.0005)},   // both ends inside, near two sides
	}
}

// TestVisibleMatchesUnculled checks that the box cull changes no answer of
// Visible or PointInObstacle: on hand-built segments at the cull's
// boundaries, on lattice obstacles, and on the holes-cold benchmark layout's
// hole boundaries and hulls.
func TestVisibleMatchesUnculled(t *testing.T) {
	lattice := NewDomain(latticeObstacles)
	for _, c := range edgeCases() {
		checkVisible(t, "edge case", lattice, c[0], c[1])
		checkVisible(t, "edge case reversed", lattice, c[1], c[0])
		checkInObstacle(t, "edge case", lattice, c[0])
		checkInObstacle(t, "edge case", lattice, c[1])
	}
	// The vertex pass is a known miss of the sampled predicate; the cull
	// must keep it, not fix it.
	if !lattice.Visible(geom.Pt(-10, -10), geom.Pt(1, 1)) {
		t.Fatal("vertex pass through the unit square changed answer")
	}

	// Every pair of half-integer lattice points around the lattice obstacles.
	var grid []geom.Point
	for x := -4.0; x <= 7; x += 0.5 {
		for y := -4.0; y <= 6; y += 0.5 {
			grid = append(grid, geom.Pt(x, y))
		}
	}
	for i, p := range grid {
		checkInObstacle(t, "lattice", lattice, p)
		for _, q := range grid[i+1:] {
			checkVisible(t, "lattice", lattice, p, q)
		}
	}

	// The unculled loop costs ~50 µs a segment on this layout, so corners
	// and nodes are sampled at a stride: ~40 000 segments in all.
	nodes, _, holes := holesColdLayout(t)
	var sample []geom.Point
	for i := 0; i < len(nodes); i += 373 {
		sample = append(sample, nodes[i])
	}
	var boundaries, hulls [][]geom.Point
	for _, h := range holes.Holes {
		boundaries = append(boundaries, h.Polygon)
		hulls = append(hulls, h.Hull)
	}
	for _, set := range []struct {
		name       string
		d          culled
		cornerStep int
	}{
		{"boundaries", NewDomain(boundaries), 4},
		{"hulls", NewOverlay(hulls), 3},
	} {
		var corners []geom.Point
		for _, poly := range set.d.Obstacles() {
			corners = append(corners, poly...)
		}
		for i := 0; i < len(corners); i += set.cornerStep {
			for _, c := range corners[i+1:] {
				checkVisible(t, set.name+" corner-corner", set.d, corners[i], c)
			}
			for _, p := range sample {
				checkVisible(t, set.name+" node-corner", set.d, p, corners[i])
			}
		}
		for i, p := range sample {
			for _, q := range sample[i+1:] {
				checkVisible(t, set.name+" node-node", set.d, p, q)
			}
		}
		for i := 0; i < len(nodes); i += 3 {
			checkInObstacle(t, set.name, set.d, nodes[i])
		}
		for _, c := range corners {
			checkInObstacle(t, set.name, set.d, c)
		}
	}
}

// holesColdLayout builds the holes-cold benchmark deployment: 24 disjoint
// convex obstacles on a bordered grid of spacing 0.55, its LDel² graph and
// the holes detected in it.
func holesColdLayout(t testing.TB) ([]geom.Point, *delaunay.PlanarGraph, *delaunay.HoleSet) {
	const side = 82.5
	obstacles := workload.RandomConvexObstacles(2, 24, side, side, 0.8, 1.6, 2)
	sc, err := workload.BorderedGrid(0.55, side, side, 1, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	g := udg.Build(sc.Points, sc.Radius)
	ldel := delaunay.LDel2Fast(g)
	holes := delaunay.DetectHoles(ldel, g.Radius())
	if len(holes.Holes) < 24 {
		t.Fatalf("holes-cold layout has %d holes, want at least 24", len(holes.Holes))
	}
	return sc.Points, ldel, holes
}

// FuzzVisible checks the culled predicates against the reference loop on
// fuzzed segments among the lattice obstacles. Endpoints beyond 10⁶ in
// magnitude lie outside the range cullMargin is sized for (far enough out,
// Lerp's rounding exceeds it), and a NaN makes the exact orientation
// fallback panic, so both are skipped.
func FuzzVisible(f *testing.F) {
	for _, c := range edgeCases() {
		f.Add(c[0].X, c[0].Y, c[1].X, c[1].Y)
	}
	d := NewDomain(latticeObstacles)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by float64) {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		a, b := geom.Pt(ax, ay), geom.Pt(bx, by)
		checkVisible(t, "fuzz", d, a, b)
		checkInObstacle(t, "fuzz", d, a)
		checkInObstacle(t, "fuzz", d, b)
	})
}
