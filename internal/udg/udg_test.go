package udg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridroute/internal/geom"
)

func linePoints(n int, spacing float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*spacing, 0)
	}
	return pts
}

func randomPoints(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*w, rng.Float64()*h)
	}
	return pts
}

func TestBuildLine(t *testing.T) {
	g := Build(linePoints(5, 0.9), 1.0)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	for v := 0; v < 5; v++ {
		want := 2
		if v == 0 || v == 4 {
			want = 1
		}
		if g.Degree(NodeID(v)) != want {
			t.Errorf("degree(%d) = %d, want %d", v, g.Degree(NodeID(v)), want)
		}
	}
	if !g.Connected() {
		t.Error("chain should be connected")
	}
	if g.EdgeCount() != 4 {
		t.Errorf("edges = %d", g.EdgeCount())
	}
}

func TestBuildDisconnected(t *testing.T) {
	g := Build(linePoints(4, 2.0), 1.0) // spacing 2 > radius
	if g.Connected() {
		t.Error("no edges expected")
	}
	if g.EdgeCount() != 0 {
		t.Errorf("edges = %d", g.EdgeCount())
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		pts := randomPoints(rng, 80, 5, 5)
		r := 0.5 + rng.Float64()
		g := Build(pts, r)
		for i := range pts {
			want := map[NodeID]bool{}
			for j := range pts {
				if i != j && pts[i].Dist(pts[j]) <= r {
					want[NodeID(j)] = true
				}
			}
			got := g.Neighbors(NodeID(i))
			if len(got) != len(want) {
				t.Fatalf("node %d: %d neighbours, want %d", i, len(got), len(want))
			}
			for _, w := range got {
				if !want[w] {
					t.Fatalf("node %d: unexpected neighbour %d", i, w)
				}
			}
		}
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 50, 3, 3)
	g := Build(pts, 1)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if g.HasEdge(NodeID(i), NodeID(j)) != g.HasEdge(NodeID(j), NodeID(i)) {
				t.Fatalf("asymmetric edge %d-%d", i, j)
			}
		}
	}
	if g.HasEdge(3, 3) {
		t.Error("no self loops")
	}
}

func TestKHopNeighborhood(t *testing.T) {
	g := Build(linePoints(7, 1.0), 1.0)
	n2 := g.KHopNeighborhood(3, 2)
	want := map[NodeID]bool{1: true, 2: true, 4: true, 5: true}
	if len(n2) != len(want) {
		t.Fatalf("2-hop size = %d (%v)", len(n2), n2)
	}
	for _, v := range n2 {
		if !want[v] {
			t.Errorf("unexpected 2-hop member %d", v)
		}
	}
	if len(g.KHopNeighborhood(0, 0)) != 0 {
		t.Error("0-hop is empty")
	}
}

func TestShortestPathLine(t *testing.T) {
	g := Build(linePoints(5, 0.8), 1.0)
	path, d, ok := g.ShortestPath(0, 4)
	if !ok {
		t.Fatal("reachable")
	}
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 4 {
		t.Fatalf("path = %v", path)
	}
	// With spacing 0.8 and radius 1 nodes can reach only adjacent nodes, so
	// the shortest path length is 4*0.8.
	if !almostEq(d, 3.2, 1e-12) {
		t.Errorf("distance = %v", d)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := Build(linePoints(3, 5), 1)
	if _, _, ok := g.ShortestPath(0, 2); ok {
		t.Error("unreachable must report false")
	}
}

// largestComponent returns the node set of g's largest connected component,
// the first one found among those of its size.
func largestComponent(g *Graph) []NodeID {
	seen := make([]bool, g.N())
	var best []NodeID
	for v := 0; v < g.N(); v++ {
		if seen[v] {
			continue
		}
		comp := g.Component(NodeID(v))
		for _, u := range comp {
			seen[u] = true
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}

func TestShortestPathTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 120, 4, 4)
	g := Build(pts, 1.2)
	comp := largestComponent(g)
	if len(comp) < 10 {
		t.Skip("component too small")
	}
	s := comp[0]
	dist := g.ShortestDistances(s)
	for _, v := range comp {
		if dist[v] < pts[s].Dist(pts[v])-1e-9 {
			t.Fatalf("graph distance %v below Euclidean %v", dist[v], pts[s].Dist(pts[v]))
		}
	}
	// Path length equals reported distance.
	for _, v := range comp[:10] {
		path, d, ok := g.ShortestPath(s, v)
		if !ok {
			t.Fatalf("unreachable %d inside component", v)
		}
		var plen float64
		for i := 1; i < len(path); i++ {
			plen += pts[path[i-1]].Dist(pts[path[i]])
		}
		if !almostEq(plen, d, 1e-9) {
			t.Fatalf("path length %v != distance %v", plen, d)
		}
	}
}

func TestShortestDistancesNonNegativeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 40, 3, 3)
		g := Build(pts, 1)
		dist := g.ShortestDistances(0)
		for _, d := range dist {
			if d < 0 {
				return false
			}
		}
		return !math.IsInf(dist[0], 1) && dist[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMaxDegree(t *testing.T) {
	// Star: center at origin, k points on a small circle.
	pts := []geom.Point{geom.Pt(0, 0)}
	for i := 0; i < 6; i++ {
		ang := float64(i) * math.Pi / 3
		pts = append(pts, geom.Pt(0.9*math.Cos(ang), 0.9*math.Sin(ang)))
	}
	g := Build(pts, 1)
	if g.MaxDegree() < 6 {
		t.Errorf("max degree = %d, want >= 6", g.MaxDegree())
	}
	if g.Degree(0) != 6 {
		t.Errorf("center degree = %d", g.Degree(0))
	}
}

func TestBuildPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for radius 0")
		}
	}()
	Build(nil, 0)
}

func TestNegativeCoordinates(t *testing.T) {
	// The grid index must handle negative coordinates correctly.
	pts := []geom.Point{geom.Pt(-0.5, -0.5), geom.Pt(0.4, 0.4), geom.Pt(-1.4, -0.6)}
	g := Build(pts, 1.3)
	if !g.HasEdge(0, 1) {
		t.Error("edge across the origin")
	}
	if !g.HasEdge(0, 2) {
		t.Error("edge in the negative quadrant")
	}
	if g.Degree(0) != 2 {
		t.Errorf("degree = %d", g.Degree(0))
	}
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func BenchmarkBuild5k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 5000, 40, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts, 1)
	}
}

func BenchmarkDijkstra2k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 2000, 25, 25)
	g := Build(pts, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestDistances(0)
	}
}
