package vis

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/routing"
	"hybridroute/internal/workload"
)

// checkLinks fails t unless Links(p) answers Visible(p, corner) for every
// corner of o.
func checkLinks(t testing.TB, name string, o *obstacleSet, p geom.Point) {
	t.Helper()
	links := o.Links(p)
	for i, c := range o.corners {
		if got, want := links(i), o.Visible(p, c); got != want {
			t.Fatalf("%s: Links(%v)(%v) = %v, Visible %v", name, p, c, got, want)
		}
	}
}

// checkRows fails t unless the index finds every corner of o by position
// and the corner's row answers Visible(corner, corners[i]) in bit i.
func checkRows(t testing.TB, name string, o *obstacleSet) {
	t.Helper()
	for _, p := range o.corners {
		c, ok := o.index[p]
		if !ok {
			t.Fatalf("%s: corner %v missing from the index", name, p)
		}
		r := o.row(c)
		for i, q := range o.corners {
			if got, want := r.has(i), o.Visible(p, q); got != want {
				t.Fatalf("%s: row of %v, bit %d (%v) = %v, Visible %v", name, p, i, q, got, want)
			}
		}
	}
}

// withUlps returns p and the four points one ulp from it along the axes.
func withUlps(p geom.Point) []geom.Point {
	up, down := math.Inf(1), math.Inf(-1)
	return []geom.Point{p,
		geom.Pt(math.Nextafter(p.X, up), p.Y), geom.Pt(math.Nextafter(p.X, down), p.Y),
		geom.Pt(p.X, math.Nextafter(p.Y, up)), geom.Pt(p.X, math.Nextafter(p.Y, down)),
	}
}

// nearBoundary returns points on and next to the obstacles' boundaries:
// every corner, each edge's midpoint and third point (on the edge exactly
// where the edge is axis-parallel, within rounding of it elsewhere), and
// each of those moved by one ulp along either axis.
func nearBoundary(polys [][]geom.Point) []geom.Point {
	var out []geom.Point
	for _, poly := range polys {
		for i, a := range poly {
			b := poly[(i+1)%len(poly)]
			out = append(out, withUlps(a)...)
			out = append(out, withUlps(geom.Midpoint(a, b))...)
			out = append(out, withUlps(geom.Lerp(a, b, 1.0/3))...)
		}
	}
	return out
}

// translate returns polys moved by (d, d).
func translate(polys [][]geom.Point, d float64) [][]geom.Point {
	out := make([][]geom.Point, len(polys))
	for i, poly := range polys {
		for _, p := range poly {
			out[i] = append(out[i], geom.Pt(p.X+d, p.Y+d))
		}
	}
	return out
}

// reversed returns polys with every vertex cycle listed the other way round,
// so convex counterclockwise obstacles become clockwise ones.
func reversed(polys [][]geom.Point) [][]geom.Point {
	out := make([][]geom.Point, len(polys))
	for i, poly := range polys {
		out[i] = slices.Clone(poly)
		slices.Reverse(out[i])
	}
	return out
}

// touchingObstacles share an edge, and a corner of the triangle lies inside
// an edge of the first square, as touching hulls may: hull groups merge
// only on proper overlap.
var touchingObstacles = [][]geom.Point{
	{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},
	{geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(1, 1)},
	{geom.Pt(0.5, 1), geom.Pt(1.5, 2), geom.Pt(-0.5, 2)},
}

// needleObstacle is a strictly convex sliver about 2×10⁻⁹ wide. The
// midpoint probe of the chord between its ends lies within rounding of
// boundaryTol from the long edges, and the two ends round it differently,
// so the sampled predicate answers that chord one way from each end.
var needleObstacle = []geom.Point{
	geom.Pt(1.6126635872441966, 1.7462559142429337), geom.Pt(0.8466040356791957, 4.327628207780911),
	geom.Pt(0.08054448219684346, 6.909000500749887), geom.Pt(0.8466040337618443, 4.327628207211909),
}

// hitSearches returns the holes-cold layout's nodes, its hull overlay and
// the searches TestTargetLinksLazy makes on it: from the hull corner where
// Chew's walk from a random node toward a random target hits a hole, to
// that target, wherever the two do not see each other.
func hitSearches(t testing.TB) ([]geom.Point, *Overlay, [][2]geom.Point) {
	nodes, ldel, holes := holesColdLayout(t)
	var hulls [][]geom.Point
	for _, h := range holes.Holes {
		hulls = append(hulls, h.Hull)
	}
	o := NewOverlay(hulls)
	isCorner := make(map[geom.Point]bool, len(o.corners))
	for _, c := range o.corners {
		isCorner[c] = true
	}
	r := routing.New(ldel)
	rng := rand.New(rand.NewSource(1))
	var searches [][2]geom.Point
	for q := 0; q < 5000; q++ {
		src, dst := rng.Intn(len(nodes)), rng.Intn(len(nodes))
		res := r.Chew(routing.NodeID(src), routing.NodeID(dst))
		s, tt := nodes[res.HitNode], nodes[dst]
		if !res.HoleHit || !isCorner[s] || o.PointInObstacle(tt) || o.Visible(s, tt) {
			continue
		}
		searches = append(searches, [2]geom.Point{s, tt})
	}
	return nodes, o, searches
}

// TestLinksMatchVisible requires the view's link test to answer
// Visible(p, corner) for every corner, and every corner's row to answer
// Visible(corner, corners[i]) in bit i, on:
//   - the holes-cold hulls (Overlay, all strictly convex) from every hull
//     corner, points on and one ulp off every hull edge and corner, a
//     stride of nodes and the hit nodes of TestTargetLinksLazy's searches;
//     and the hole boundaries (Domain, mostly left to the predicate);
//   - unit squares, the lattice obstacles and touching obstacles from a
//     half-integer lattice, the vertex pass among them, random convex
//     obstacles from random
//     points, the clockwise copies of all of these, and all of it
//     translated by 10⁵ and 9×10⁵, near the premise's 10⁶ edge;
//   - the needle, whose chord the predicate answers one way from each end,
//     so a row filled from Visible(corners[i], corner) fails.
func TestLinksMatchVisible(t *testing.T) {
	nodes, overlay, searches := hitSearches(t)
	var endpoints []geom.Point
	endpoints = append(endpoints, nearBoundary(overlay.polys)...)
	for i := 0; i < len(nodes); i += 97 {
		endpoints = append(endpoints, nodes[i])
	}
	hit := make(map[geom.Point]bool)
	for _, st := range searches {
		if !hit[st[0]] {
			hit[st[0]] = true
			endpoints = append(endpoints, st[0])
		}
	}
	for _, p := range endpoints {
		checkLinks(t, "holes-cold hulls", &overlay.obstacleSet, p)
	}
	checkRows(t, "holes-cold hulls", &overlay.obstacleSet)
	_, _, holes := holesColdLayout(t)
	var boundaries [][]geom.Point
	for _, h := range holes.Holes {
		boundaries = append(boundaries, h.Polygon)
	}
	domain := NewDomain(boundaries)
	near := nearBoundary(boundaries)
	for i := 0; i < len(near); i += 13 {
		checkLinks(t, "holes-cold boundaries", &domain.obstacleSet, near[i])
	}
	for i := 0; i < len(nodes); i += 499 {
		checkLinks(t, "holes-cold boundaries", &domain.obstacleSet, nodes[i])
	}
	checkRows(t, "holes-cold boundaries", &domain.obstacleSet)

	var lattice []geom.Point
	for x := -1.0; x <= 8; x += 0.5 {
		for y := -1.0; y <= 8; y += 0.5 {
			lattice = append(lattice, geom.Pt(x, y))
		}
	}
	rng := rand.New(rand.NewSource(24))
	var random []geom.Point
	for i := 0; i < 1500; i++ {
		random = append(random, geom.Pt(rng.Float64()*44-2, rng.Float64()*44-2))
	}
	for _, d := range []float64{0, 1e5, 9e5} {
		for _, set := range []struct {
			name   string
			polys  [][]geom.Point
			points []geom.Point
		}{
			{"unit squares", unitSquares(), lattice},
			{"lattice obstacles", latticeObstacles, lattice},
			{"touching", touchingObstacles, lattice},
			{"random convex", workload.RandomConvexObstacles(18, 12, 40, 40, 1, 3, 1), random},
		} {
			for _, polys := range [][][]geom.Point{set.polys, reversed(set.polys)} {
				o := newObstacleSet(translate(polys, d))
				for _, p := range set.points {
					checkLinks(t, set.name, &o, geom.Pt(p.X+d, p.Y+d))
				}
				for _, p := range nearBoundary(o.polys) {
					checkLinks(t, set.name, &o, p)
				}
				checkRows(t, set.name, &o)
			}
		}
	}

	needle := newObstacleSet([][]geom.Point{needleObstacle})
	a, b := needle.corners[0], needle.corners[2]
	if needle.Visible(a, b) == needle.Visible(b, a) {
		t.Fatal("the needle's chord is seen alike from both ends")
	}
	for _, p := range nearBoundary(needle.polys) {
		checkLinks(t, "needle", &needle, p)
	}
	checkRows(t, "needle", &needle)

	// The vertex pass: (-10,-10) to (1,1) enters the unit square at (0,0)
	// and leaves at (1,1). The sampled predicate calls it visible, and the
	// view must leave it to the predicate, not decide it.
	squares := newObstacleSet(unitSquares())
	p := geom.Pt(-10, -10)
	if i := slices.Index(squares.corners, geom.Pt(1, 1)); !squares.Links(p)(i) || !squares.Visible(p, geom.Pt(1, 1)) {
		t.Fatal("vertex pass through the unit square changed answer")
	}
}

// TestLinksMostlyDecided pins what the view saves on the searches of
// TestTargetLinksLazy: it replays each link test those searches make (every
// corner for s, the settled corners for t) through the view's classifier,
// obstacle by obstacle in sees's order, and counts the tests that still run
// geom.SegmentIntersectsPolygon for some obstacle. Fewer than a quarter may;
// before the view a link test ran it on every obstacle the cull kept, up to
// the first that blocked.
func TestLinksMostlyDecided(t *testing.T) {
	_, o, searches := hitSearches(t)
	tests, left := 0, 0
	replay := func(v *view, c int) bool {
		tests++
		q := o.corners[c]
		sb := geom.EmptyBox().Extend(v.p).Extend(q)
		ran := false
		blockedBy := func(j int) bool {
			if !sb.Overlaps(o.boxes[j]) {
				return false
			}
			verdict := v.classify(j, c)
			if verdict == undecided && !lineMissesBox(v.p, q, o.boxes[j]) {
				ran = true
				return geom.SegmentIntersectsPolygon(geom.Seg(v.p, q), o.polys[j])
			}
			return verdict == blocked
		}
		own := o.owner[c]
		seen := !blockedBy(own)
		for j := 0; seen && j < len(o.polys); j++ {
			seen = j == own || !blockedBy(j)
		}
		if ran {
			left++
		}
		if seen != v.sees(c) {
			t.Fatalf("replayed link test from %v to %v = %v, sees %v", v.p, q, seen, v.sees(c))
		}
		return seen
	}
	for _, st := range searches {
		vs, vt := o.view(st[0]), o.view(st[1])
		Search(o.corners, o.adj, st[0], st[1],
			func(i int) bool { return replay(vs, i) },
			func(i int) bool { return replay(vt, i) })
	}
	t.Logf("%d searches made %.1f link tests each; %.1f ran the predicate", len(searches),
		float64(tests)/float64(len(searches)), float64(left)/float64(len(searches)))
	if len(searches) < 500 || 4*left >= tests {
		t.Fatalf("%d searches: %d of %d link tests ran the predicate, want under a quarter", len(searches), left, tests)
	}
}

// FuzzLinks checks the view's link test against Visible for a fuzzed
// endpoint and every corner of the unit squares, the lattice and touching
// obstacles, and their clockwise copies. Coordinates beyond 10⁶ in
// magnitude lie outside the premise of the view's clear verdicts (and of
// the box cull), and NaN or ±Inf make the exact orientation fallback panic,
// so they are skipped.
func FuzzLinks(f *testing.F) {
	for _, c := range edgeCases() {
		f.Add(c[0].X, c[0].Y)
		f.Add(c[1].X, c[1].Y)
	}
	f.Add(2.5, 6.0)
	f.Add(0.5, 3.0)
	polys := append(append(unitSquares(), latticeObstacles...), touchingObstacles...)
	sets := []obstacleSet{newObstacleSet(polys), newObstacleSet(reversed(polys))}
	f.Fuzz(func(t *testing.T, x, y float64) {
		for _, v := range []float64{x, y} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		for i := range sets {
			checkLinks(t, "fuzz", &sets[i], geom.Pt(x, y))
		}
	})
}
