package vis

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
	"hybridroute/internal/routing"
	"hybridroute/internal/workload"
)

// eagerShortestPath is the reference search: it tests every corner against
// both endpoints up front, copies the adjacency rows it extends and runs
// Dijkstra with container/heap. Search must return exactly what it returns.
func eagerShortestPath(o *obstacleSet, base [][]int, s, t geom.Point) ([]geom.Point, float64, bool) {
	if o.PointInObstacle(s) || o.PointInObstacle(t) {
		return nil, 0, false
	}
	if o.Visible(s, t) {
		return []geom.Point{s, t}, s.Dist(t), true
	}
	n := len(o.corners)
	adj := make([][]int, n+2)
	copy(adj, base)
	for i, c := range o.corners {
		if o.Visible(s, c) {
			adj[n] = append(adj[n], i)
		}
		if o.Visible(t, c) {
			adj[i] = append(slices.Clip(adj[i]), n+1) // copies; base stays shared
		}
	}
	pos := func(i int) geom.Point {
		switch i {
		case n:
			return s
		case n + 1:
			return t
		default:
			return o.corners[i]
		}
	}
	return refDijkstraPoints(adj, pos, n, n+1)
}

// refDijkstraPoints is the reference Dijkstra over a materialised graph.
func refDijkstraPoints(adj [][]int, pos func(int) geom.Point, src, dst int) ([]geom.Point, float64, bool) {
	n := len(adj)
	dist := make([]float64, n)
	prev := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &refHeap{{V: src}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(mem.Item[int])
		if it.D > dist[it.V] {
			continue
		}
		if it.V == dst {
			break
		}
		pv := pos(it.V)
		for _, w := range adj[it.V] {
			nd := it.D + pv.Dist(pos(w))
			if nd < dist[w] {
				dist[w] = nd
				prev[w] = it.V
				heap.Push(pq, mem.Item[int]{V: w, D: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, false
	}
	var idxPath []int
	for v := dst; v != -1; v = prev[v] {
		idxPath = append(idxPath, v)
		if v == src {
			break
		}
	}
	path := make([]geom.Point, len(idxPath))
	for i, v := range idxPath {
		path[len(idxPath)-1-i] = pos(v)
	}
	return path, dist[dst], true
}

type refHeap []mem.Item[int]

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].D < h[j].D }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(mem.Item[int])) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// searcher is one backend under differential test: its obstacle set and
// the base graph its ShortestPath searches.
type searcher struct {
	name string
	o    *obstacleSet
	base [][]int
	path func(s, t geom.Point) ([]geom.Point, float64, bool)
}

func overlaySearcher(name string, o *Overlay) searcher {
	return searcher{name, &o.obstacleSet, o.adj, o.ShortestPath}
}

func domainSearcher(name string, d *Domain) searcher {
	return searcher{name, &d.obstacleSet, d.cornerAdj, d.ShortestPath}
}

// checkMatchesEager fails t unless the backend's path from s to tt equals
// the eager reference's: the same ok, the same points by ==, and a length
// with the same bits. It asks the backend twice, so an endpoint at a corner
// is checked with the corner's row both as the search fills it and once
// filled.
func checkMatchesEager(t testing.TB, b searcher, s, tt geom.Point) {
	t.Helper()
	want, wantLen, wantOK := eagerShortestPath(b.o, b.base, s, tt)
	for run := 1; run <= 2; run++ {
		got, gotLen, gotOK := b.path(s, tt)
		if gotOK != wantOK || math.Float64bits(gotLen) != math.Float64bits(wantLen) || !slices.Equal(got, want) {
			t.Fatalf("%s: ShortestPath(%v, %v), run %d = %v, %v, %v; eager %v, %v, %v",
				b.name, s, tt, run, got, gotLen, gotOK, want, wantLen, wantOK)
		}
	}
}

// unitSquares are 16 unit squares at even coordinates: between them, paths
// joining half-integer lattice points tie exactly in length all the time.
func unitSquares() [][]geom.Point {
	var squares [][]geom.Point
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			x, y := float64(2*i), float64(2*j)
			squares = append(squares, []geom.Point{geom.Pt(x, y), geom.Pt(x+1, y), geom.Pt(x+1, y+1), geom.Pt(x, y+1)})
		}
	}
	return squares
}

// TestShortestPathMatchesEager checks the lazy search against the eager
// reference, point for point and bit for bit, on freshly built backends
// whose corner rows fill as the pairs reach them. It has three kinds of
// input: the holes-cold layout's hulls (Overlay) and hole boundaries
// (Domain) with corner–corner and corner–node pairs, a half-integer lattice
// among unit squares, whose many exact ties expose any change in heap order,
// and seeded random pairs among random convex obstacles.
func TestShortestPathMatchesEager(t *testing.T) {
	nodes, _, holes := holesColdLayout(t)
	var boundaries, hulls [][]geom.Point
	for _, h := range holes.Holes {
		boundaries = append(boundaries, h.Polygon)
		hulls = append(hulls, h.Hull)
	}
	for _, set := range []struct {
		b                    searcher
		cornerStep, nodeStep int
	}{
		{overlaySearcher("holes-cold hulls", NewOverlay(hulls)), 7, 1499},
		{domainSearcher("holes-cold boundaries", NewDomain(boundaries)), 61, 2999},
	} {
		corners := set.b.o.corners
		for i := 0; i < len(corners); i += set.cornerStep {
			for j := 0; j < len(corners); j += set.cornerStep {
				checkMatchesEager(t, set.b, corners[i], corners[j])
			}
			for j := i % set.nodeStep; j < len(nodes); j += set.nodeStep {
				checkMatchesEager(t, set.b, corners[i], nodes[j])
				checkMatchesEager(t, set.b, nodes[j], corners[i])
			}
		}
	}

	squares := unitSquares()
	var lattice []geom.Point
	for x := -1.0; x <= 8; x += 0.5 {
		for y := -1.0; y <= 8; y += 0.5 {
			lattice = append(lattice, geom.Pt(x, y))
		}
	}
	for _, b := range []searcher{
		overlaySearcher("lattice overlay", NewOverlay(squares)),
		domainSearcher("lattice domain", NewDomain(squares)),
	} {
		for i, p := range lattice {
			for j := i % 11; j < len(lattice); j += 11 {
				checkMatchesEager(t, b, p, lattice[j])
			}
		}
	}

	rng := rand.New(rand.NewSource(18))
	obstacles := workload.RandomConvexObstacles(18, 12, 40, 40, 1, 3, 1)
	random := func() geom.Point { return geom.Pt(rng.Float64()*44-2, rng.Float64()*44-2) }
	for _, b := range []searcher{
		overlaySearcher("random overlay", NewOverlay(obstacles)),
		domainSearcher("random domain", NewDomain(obstacles)),
	} {
		for i := 0; i < 2000; i++ {
			checkMatchesEager(t, b, random(), random())
		}
	}
}

// TestTargetLinksLazy pins the saving on the searches Section 4.3 makes:
// on the holes-cold layout, Chew's walk from a random node toward a random
// target hits a hole, and the hull corner it stops at searches the hull
// overlay for the target. Those searches test fewer than half of the
// corners for a link to the target, where the eager search tested every
// one.
func TestTargetLinksLazy(t *testing.T) {
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
	searches, tests := 0, 0
	for q := 0; q < 5000; q++ {
		src, dst := rng.Intn(len(nodes)), rng.Intn(len(nodes))
		res := r.Chew(routing.NodeID(src), routing.NodeID(dst))
		s, tt := nodes[res.HitNode], nodes[dst]
		if !res.HoleHit || !isCorner[s] || o.PointInObstacle(tt) || o.Visible(s, tt) {
			continue
		}
		searches++
		Search(o.corners, o.adj, s, tt,
			func(i int) bool { return o.Visible(s, o.corners[i]) },
			func(i int) bool { tests++; return o.Visible(tt, o.corners[i]) })
	}
	n := len(o.corners)
	mean := float64(tests) / float64(searches)
	t.Logf("%d searches tested %.1f of %d corners for a target link on average", searches, mean, n)
	if searches < 500 || mean >= float64(n)/2 {
		t.Fatalf("%d searches tested %.1f of %d corners for a target link, want fewer than half", searches, mean, n)
	}
}

// FuzzShortestPath checks the lazy search against the eager reference for
// fuzzed endpoints among the lattice obstacles, under both backends, each
// built afresh for the input so a corner endpoint's row starts unfilled.
// Seeds put an endpoint at the corner (0, 0) written with -0, which the
// corner index matches to the +0 corner's row. Coordinates beyond 10⁶ in
// magnitude lie outside the range the visibility cull is sized for, and NaN
// or ±Inf make the exact orientation fallback panic, so they are skipped.
func FuzzShortestPath(f *testing.F) {
	for _, c := range edgeCases() {
		f.Add(c[0].X, c[0].Y, c[1].X, c[1].Y)
	}
	f.Add(-4.0, -4.0, 7.0, 6.0)
	f.Add(2.5, -1.0, 2.5, 6.0)
	negZero := math.Copysign(0, -1)
	f.Add(negZero, 0.0, 7.0, 6.0)
	f.Add(7.0, 6.0, 0.0, negZero)
	f.Add(negZero, negZero, 4.0, 2.0)
	f.Fuzz(func(t *testing.T, sx, sy, tx, ty float64) {
		for _, v := range []float64{sx, sy, tx, ty} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		s, tt := geom.Pt(sx, sy), geom.Pt(tx, ty)
		checkMatchesEager(t, overlaySearcher("fuzz overlay", NewOverlay(latticeObstacles)), s, tt)
		checkMatchesEager(t, domainSearcher("fuzz domain", NewDomain(latticeObstacles)), s, tt)
	})
}

// TestConcurrentSearches runs the same searches from four goroutines over
// one shared Overlay and one shared Domain, as the engine's workers do, and
// requires every answer to equal the one a backend of its own gives. The
// shared backends are fresh, and many endpoints are square corners, so the
// goroutines race to fill the same corner rows; under -race it checks that
// filling them is synchronised.
func TestConcurrentSearches(t *testing.T) {
	squares := unitSquares()
	var pairs [][2]geom.Point
	for x := -1.0; x <= 8; x += 1.5 {
		for y := -1.0; y <= 8; y += 1.5 {
			pairs = append(pairs, [2]geom.Point{geom.Pt(x, y), geom.Pt(8-y, x+0.5)})
		}
	}
	for _, build := range []func() searcher{
		func() searcher { return overlaySearcher("overlay", NewOverlay(squares)) },
		func() searcher { return domainSearcher("domain", NewDomain(squares)) },
	} {
		ref, b := build(), build()
		want := make([][]geom.Point, len(pairs))
		for i, p := range pairs {
			want[i], _, _ = ref.path(p[0], p[1])
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, p := range pairs {
					if got, _, _ := b.path(p[0], p[1]); !slices.Equal(got, want[i]) {
						t.Errorf("%s: concurrent ShortestPath(%v, %v) = %v, sequential %v", b.name, p[0], p[1], got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
