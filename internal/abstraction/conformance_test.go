package abstraction

import (
	"testing"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

// mkHole hand-builds a Hole the way DetectHoles would, with ring node IDs
// starting at firstNode.
func mkHole(id, firstNode int, poly []geom.Point) *delaunay.Hole {
	h := &delaunay.Hole{ID: id, Polygon: poly}
	h.Ring = make([]udg.NodeID, len(poly))
	for i := range poly {
		h.Ring[i] = udg.NodeID(firstNode + i)
	}
	h.Hull = geom.ConvexHull(poly)
	h.BBox = geom.BoundingBox(h.Hull)
	ptNode := make(map[geom.Point]udg.NodeID, len(poly))
	for i, v := range h.Ring {
		ptNode[poly[i]] = v
	}
	for _, p := range h.Hull {
		if v, ok := ptNode[p]; ok {
			h.HullNodes = append(h.HullNodes, v)
		}
	}
	return h
}

func holeSet(holes ...*delaunay.Hole) *delaunay.HoleSet {
	return &delaunay.HoleSet{Holes: holes}
}

// conformanceCases is the shared geometry table: every backend must satisfy
// the contract on each configuration, including the intersecting and nested
// hulls the hull abstraction's analysis excludes.
func conformanceCases() map[string]*delaunay.HoleSet {
	square := func(id, first int, x, y, side float64) *delaunay.Hole {
		return mkHole(id, first, []geom.Point{
			geom.Pt(x, y), geom.Pt(x+side, y), geom.Pt(x+side, y+side), geom.Pt(x, y+side),
		})
	}
	star := mkHole(0, 0, workload.StarPolygon(geom.Pt(5, 5), 2, 0.8, 5, 0.1))
	return map[string]*delaunay.HoleSet{
		"hole-free":    holeSet(),
		"single":       holeSet(square(0, 0, 4, 4, 2)),
		"bay":          holeSet(star),
		"disjoint":     holeSet(square(0, 0, 1, 1, 2), square(1, 100, 6, 6, 2)),
		"intersecting": holeSet(square(0, 0, 3, 3, 2), square(1, 100, 4, 4, 2)),
		"nested":       holeSet(star, square(1, 100, 4.6, 4.6, 0.5)),
	}
}

func eachBackend(t *testing.T, hs *delaunay.HoleSet, fn func(t *testing.T, a Abstraction)) {
	t.Helper()
	for _, name := range Names() {
		a, err := New(name, hs)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { fn(t, a) })
	}
}

// TestConformance runs the shared contract over both backends and every
// configuration in the table.
func TestConformance(t *testing.T) {
	for cname, hs := range conformanceCases() {
		hs := hs
		t.Run(cname, func(t *testing.T) {
			eachBackend(t, hs, func(t *testing.T, a Abstraction) {
				checkRegions(t, a, hs)
				checkPredicates(t, a, hs)
				checkWaypoints(t, a)
				checkStorage(t, a, hs)
			})
		})
	}
}

// checkRegions: deterministic partition of all holes into convex regions
// covering each member hole's abstracted shape, with resolvable corners.
func checkRegions(t *testing.T, a Abstraction, hs *delaunay.HoleSet) {
	t.Helper()
	seen := map[int]bool{}
	minPrev := -1
	for ri, r := range a.Regions() {
		if len(r.Holes) == 0 {
			t.Fatalf("region %d has no member holes", ri)
		}
		if r.Holes[0] <= minPrev {
			t.Fatalf("regions not ordered by smallest member: %v", a.Regions())
		}
		minPrev = r.Holes[0]
		for _, hi := range r.Holes {
			if seen[hi] {
				t.Fatalf("hole %d in two regions", hi)
			}
			seen[hi] = true
		}
		if len(r.Poly) >= 3 && !geom.IsConvexCCW(r.Poly) {
			t.Fatalf("region %d polygon not convex CCW: %v", ri, r.Poly)
		}
		// Each member hole's hull corners must be covered by the region.
		for _, hi := range r.Holes {
			for _, p := range hs.Holes[hi].Hull {
				if !geom.PointInConvex(p, r.Poly) {
					t.Fatalf("region %d does not cover hull point %v of hole %d", ri, p, hi)
				}
			}
		}
		// Every region corner must resolve to a real node.
		for _, p := range r.Poly {
			if _, ok := a.CornerNode(p); !ok {
				t.Fatalf("region %d corner %v resolves to no node", ri, p)
			}
		}
	}
	if len(seen) != len(hs.Holes) {
		t.Fatalf("regions cover %d of %d holes", len(seen), len(hs.Holes))
	}
	// Regions must be pairwise disjoint (interiors): the overlay construction
	// assumes disjoint obstacles.
	regs := a.Regions()
	for i := 0; i < len(regs); i++ {
		for j := i + 1; j < len(regs); j++ {
			for _, p := range regs[i].Poly {
				if geom.PointStrictlyInConvex(p, regs[j].Poly) {
					t.Fatalf("region %d corner strictly inside region %d", i, j)
				}
			}
		}
	}
}

// checkPredicates: Contains/RegionAt/SegmentCrosses agree with the region
// geometry.
func checkPredicates(t *testing.T, a Abstraction, hs *delaunay.HoleSet) {
	t.Helper()
	far := geom.Pt(-50, -50)
	if a.Contains(far) || a.RegionAt(far) >= 0 {
		t.Fatal("far point must be outside every region")
	}
	if a.SegmentCrosses(geom.Seg(far, geom.Pt(-49, -50))) {
		t.Fatal("far segment must not cross any region")
	}
	for hi, h := range hs.Holes {
		c := geom.BoundingBox(h.Hull).Center()
		if !a.Contains(c) {
			t.Fatalf("hole %d hull center must be contained", hi)
		}
		ri := a.RegionAt(c)
		if ri < 0 {
			t.Fatalf("hole %d hull center resolves to no region", hi)
		}
		member := false
		for _, m := range a.Regions()[ri].Holes {
			if m == hi {
				member = true
			}
		}
		if !member {
			t.Fatalf("hole %d hull center resolves to region %d which does not contain it", hi, ri)
		}
		if !a.SegmentCrosses(geom.Seg(far, c)) {
			t.Fatalf("segment into hole %d center must cross a region", hi)
		}
	}
}

// checkWaypoints: outside-endpoint plans exist, are at least as long as the
// straight line, start and end at the query points, and avoid region
// interiors leg by leg.
func checkWaypoints(t *testing.T, a Abstraction) {
	t.Helper()
	s, e := geom.Pt(-10, 5), geom.Pt(20, 5)
	path, l, ok := a.Waypoints(s, e)
	if !ok {
		t.Fatal("outside-endpoint waypoint query must succeed")
	}
	if len(path) < 2 || !path[0].Eq(s) || !path[len(path)-1].Eq(e) {
		t.Fatalf("waypoint path must run from s to t, got %v", path)
	}
	if l < s.Dist(e)-1e-9 {
		t.Fatalf("waypoint length %v shorter than straight line %v", l, s.Dist(e))
	}
	if l != geom.PathLength(path) {
		t.Fatalf("reported length %v != path length %v", l, geom.PathLength(path))
	}
	for i := 1; i < len(path); i++ {
		if a.SegmentCrosses(geom.Seg(path[i-1], path[i])) {
			t.Fatalf("waypoint leg %v-%v crosses a region", path[i-1], path[i])
		}
	}
	// An endpoint strictly inside a region: the bbox backend must plan from
	// it (every boundary node is strictly inside its box); the hull backend
	// may reject (the router exits via the hull first).
	for ri, r := range a.Regions() {
		if len(r.Poly) < 3 {
			continue
		}
		inner := geom.BoundingBox(r.Poly).Center()
		if a.RegionAt(inner) != ri {
			continue
		}
		path, _, ok := a.Waypoints(inner, e)
		if a.Name() == "bbox" {
			if !ok {
				t.Fatalf("bbox backend must plan from interior point %v", inner)
			}
			if !path[0].Eq(inner) || !path[len(path)-1].Eq(e) {
				t.Fatalf("interior plan must run from s to t, got %v", path)
			}
		}
	}
}

// checkStorage: HoleWords and Storage are positive and consistent, and the
// hull backend's accounting matches Theorem 1.2.
func checkStorage(t *testing.T, a Abstraction, hs *delaunay.HoleSet) {
	t.Helper()
	sum := 0
	for hi := range hs.Holes {
		w := a.HoleWords(hi)
		if w <= 0 {
			t.Fatalf("HoleWords(%d) = %d, must be positive", hi, w)
		}
		if a.Name() == "hull" && w != 3*len(hs.Holes[hi].HullNodes) {
			t.Fatalf("hull HoleWords(%d) = %d, want %d", hi, w, 3*len(hs.Holes[hi].HullNodes))
		}
		if a.Name() == "bbox" && w != 5 {
			t.Fatalf("bbox HoleWords(%d) = %d, want 5", hi, w)
		}
		sum += w
	}
	if got, want := a.Storage(), sum+2*a.EdgeCount(); got != want {
		t.Fatalf("Storage = %d, want ΣHoleWords+2·edges = %d", got, want)
	}
}

// TestBackendIDsDistinct pins the cache-key identifiers apart.
func TestBackendIDsDistinct(t *testing.T) {
	hs := holeSet()
	ids := map[uint8]string{}
	for _, name := range Names() {
		a, err := New(name, hs)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("backend %q reports name %q", name, a.Name())
		}
		if prev, dup := ids[a.ID()]; dup {
			t.Fatalf("backends %q and %q share ID %d", prev, name, a.ID())
		}
		ids[a.ID()] = name
	}
	if _, err := New("nope", hs); err == nil {
		t.Fatal("unknown backend must be rejected")
	}
	if a, err := New("", hs); err != nil || a.Name() != "hull" {
		t.Fatal("empty name must select the hull default")
	}
}

// TestBBoxMergesIntersectingAndNested pins the backend's reason to exist:
// configurations where hole hulls intersect or nest produce one merged,
// disjoint box region.
func TestBBoxMergesIntersectingAndNested(t *testing.T) {
	cases := conformanceCases()
	for _, name := range []string{"intersecting", "nested"} {
		hs := cases[name]
		if !hs.HullsIntersect() {
			t.Fatalf("%s: hull backend must report intersecting hulls", name)
		}
		a, err := New("bbox", hs)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Regions()) != 1 {
			t.Fatalf("%s: bbox must merge into one region, got %d", name, len(a.Regions()))
		}
		if len(a.Regions()[0].Holes) != len(hs.Holes) {
			t.Fatalf("%s: merged region must contain all holes", name)
		}
	}
	// Disjoint holes must stay separate regions.
	a, err := New("bbox", cases["disjoint"])
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Regions()) != 2 {
		t.Fatalf("disjoint: bbox must keep 2 regions, got %d", len(a.Regions()))
	}
}
