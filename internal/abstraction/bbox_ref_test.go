package abstraction

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/workload"
)

// eagerBBoxWaypoints is the reference BBox.Waypoints: it links both
// endpoints up front, into copied adjacency rows, with corner→s back-links
// the search never relaxes, and runs Dijkstra with container/heap.
func eagerBBoxWaypoints(a *BBox, s, t geom.Point) ([]geom.Point, float64, bool) {
	rs, rt := a.RegionAt(s), a.RegionAt(t)
	if rs < 0 && rt < 0 {
		return a.overlay.ShortestPath(s, t)
	}
	if rs >= 0 && rs == rt {
		return []geom.Point{s, t}, s.Dist(t), true
	}
	n := len(a.corners)
	adj := make([][]int, n+2)
	copy(adj, a.adj)
	connect := func(endpoint int, p geom.Point, region int) {
		for i := 0; i < n; i++ {
			reachable := false
			if region >= 0 {
				reachable = a.cornerRegion(i) == region
			} else {
				reachable = a.overlay.Visible(p, a.corners[i])
			}
			if reachable {
				adj[endpoint] = append(adj[endpoint], i)
				adj[i] = append(append([]int(nil), adj[i]...), endpoint) // copy-on-write
			}
		}
	}
	connect(n, s, rs)
	connect(n+1, t, rt)
	pos := func(i int) geom.Point {
		switch i {
		case n:
			return s
		case n + 1:
			return t
		default:
			return a.corners[i]
		}
	}
	return refDijkstra(adj, pos, n, n+1)
}

// refDijkstra is the reference Euclidean Dijkstra over a materialised graph.
func refDijkstra(adj [][]int, pos func(int) geom.Point, src, dst int) ([]geom.Point, float64, bool) {
	dist := make([]float64, len(adj))
	prev := make([]int, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &refHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refItem)
		if it.d > dist[it.v] {
			continue
		}
		if it.v == dst {
			break
		}
		pv := pos(it.v)
		for _, w := range adj[it.v] {
			if nd := it.d + pv.Dist(pos(w)); nd < dist[w] {
				dist[w] = nd
				prev[w] = it.v
				heap.Push(pq, refItem{w, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, false
	}
	var path []geom.Point
	for v := dst; v != -1; v = prev[v] {
		path = append(path, pos(v))
	}
	slices.Reverse(path)
	return path, dist[dst], true
}

type refItem struct {
	v int
	d float64
}

type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// checkBBoxMatchesEager fails t unless Waypoints(s, e) equals the eager
// reference's answer: the same ok, the same points by ==, and a length with
// the same bits.
func checkBBoxMatchesEager(t *testing.T, name string, a *BBox, s, e geom.Point) {
	t.Helper()
	got, gotLen, gotOK := a.Waypoints(s, e)
	want, wantLen, wantOK := eagerBBoxWaypoints(a, s, e)
	if gotOK != wantOK || math.Float64bits(gotLen) != math.Float64bits(wantLen) || !slices.Equal(got, want) {
		t.Fatalf("%s: Waypoints(%v, %v) = %v, %v, %v; eager %v, %v, %v",
			name, s, e, got, gotLen, gotOK, want, wantLen, wantOK)
	}
}

// TestBBoxWaypointsMatchEager checks the bounding-box backend's search
// against the eager reference on every conformance fixture, over a
// half-integer lattice, the box corners and the hole vertices, and on the
// three E20 deployments, between node positions inside and outside boxes.
func TestBBoxWaypointsMatchEager(t *testing.T) {
	for name, hs := range conformanceCases() {
		a := newBBox(hs)
		pts := slices.Clone(a.corners)
		for _, h := range hs.Holes {
			pts = append(pts, h.Polygon...)
		}
		for x := -1.0; x <= 11; x += 0.5 {
			for y := -1.0; y <= 11; y += 0.5 {
				pts = append(pts, geom.Pt(x, y))
			}
		}
		for i, p := range pts {
			for j := i % 5; j < len(pts); j += 5 {
				checkBBoxMatchesEager(t, name, a, p, pts[j])
			}
		}
	}

	for _, fam := range []struct {
		name      string
		obstacles [][]geom.Point
	}{
		{"disjoint", [][]geom.Point{
			workload.RegularPolygon(geom.Pt(2.6, 2.6), 1.1, 8, 0.1),
			workload.StarPolygon(geom.Pt(7.2, 7.2), 1.3, 0.6, 5, 0.2),
		}},
		{"overlapping", [][]geom.Point{
			{geom.Pt(3, 3), geom.Pt(8, 3), geom.Pt(8, 4.2), geom.Pt(4.2, 4.2), geom.Pt(4.2, 8), geom.Pt(3, 8)},
			{geom.Pt(5.8, 5.4), geom.Pt(9.2, 5.4), geom.Pt(9.2, 6.6), geom.Pt(5.8, 6.6)},
		}},
		{"nested", [][]geom.Point{
			workload.HorseshoePolygon(geom.Pt(5, 5), 2.6, 1.4, 2.4),
			workload.RegularPolygon(geom.Pt(5, 6.4), 0.45, 8, 0.1),
		}},
	} {
		sc, err := workload.JitteredGrid(0.5, 10, 10, 1, fam.obstacles)
		if err != nil {
			t.Fatal(err)
		}
		g := sc.Build()
		a := newBBox(delaunay.DetectHoles(delaunay.LDel2Fast(g), g.Radius()))
		pts := sc.Points
		for i, p := range pts {
			for j := i % 7; j < len(pts); j += 7 {
				checkBBoxMatchesEager(t, "E20 "+fam.name, a, p, pts[j])
			}
		}
	}
}
