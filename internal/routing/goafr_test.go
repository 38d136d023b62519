package routing

import (
	"math"
	"math/rand"
	"testing"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// mazeRouter builds a wall-with-gap scenario where the gap lies far outside
// the initial GOAFR ellipse, forcing ellipse doubling.
func mazeRouter(t testing.TB) (*udg.Graph, *Router, NodeID, NodeID) {
	t.Helper()
	var pts []geom.Point
	for x := 0.0; x <= 12; x += 0.55 {
		for y := 0.0; y <= 9; y += 0.55 {
			// Wall at x∈[5.8,6.6] with a gap only at the very top (y > 8).
			if x > 5.8 && x < 6.6 && y < 8 {
				continue
			}
			pts = append(pts, geom.Pt(x+1e-4*math.Sin(9*x+4*y), y+1e-4*math.Cos(5*x-3*y)))
		}
	}
	g := udg.Build(pts, 1)
	if !g.Connected() {
		t.Fatal("maze disconnected")
	}
	r := New(delaunay.LDel2Fast(g))
	s := nodeNear(g, geom.Pt(4.5, 1))
	d := nodeNear(g, geom.Pt(8, 1))
	return g, r, s, d
}

func TestGOAFREllipseDoubling(t *testing.T) {
	g, r, s, d := mazeRouter(t)
	// The direct distance is ~3.5 but the detour through the gap is ~16+:
	// the initial 1.4x ellipse cannot contain the gap, so GOAFR must double.
	res := r.GOAFR(s, d)
	if !res.Reached {
		t.Fatal("GOAFR must deliver after enlarging the ellipse")
	}
	direct := g.Point(s).Dist(g.Point(d))
	if res.Length(r.Graph()) < 2*direct {
		t.Fatalf("path length %.1f suspiciously short for a %.1f-wide wall detour",
			res.Length(r.Graph()), direct)
	}
	for i := 1; i < len(res.Path); i++ {
		if !r.Graph().HasEdge(res.Path[i-1], res.Path[i]) {
			t.Fatalf("path step %d invalid", i)
		}
	}
}

func TestGOAFRVersusGreedyFaceOnMaze(t *testing.T) {
	_, r, s, d := mazeRouter(t)
	gf := r.GreedyFace(s, d)
	ga := r.GOAFR(s, d)
	if !gf.Reached || !ga.Reached {
		t.Fatal("both recovery routers must deliver")
	}
	if gr := r.Greedy(s, d); gr.Reached {
		t.Fatal("greedy should fail at the wall")
	}
}

func TestGOAFRRandomPairsConsistent(t *testing.T) {
	g, r, _, _ := mazeRouter(t)
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		s := NodeID(rng.Intn(g.N()))
		d := NodeID(rng.Intn(g.N()))
		res := r.GOAFR(s, d)
		if !res.Reached {
			t.Fatalf("GOAFR failed %d->%d", s, d)
		}
		if res.Path[0] != s || res.Path[len(res.Path)-1] != d {
			t.Fatalf("endpoints wrong for %d->%d", s, d)
		}
	}
}

func TestChewViaEmptyAndSingle(t *testing.T) {
	_, r, _, _ := mazeRouter(t)
	if res := r.ChewVia(nil); res.Reached || len(res.Path) != 0 {
		t.Error("empty waypoint list")
	}
	if res := r.ChewVia([]NodeID{5}); !res.Reached || len(res.Path) != 1 {
		t.Error("single waypoint = already there")
	}
}

func TestNextFaceVertexCWInvertsCCW(t *testing.T) {
	_, r, _, _ := mazeRouter(t)
	// For any edge (a,b): nextCW after next̄CCW steps should relate through
	// the rotation system; specifically CW(b, CCW-next) must return to a
	// neighbour set member. Sanity: both directions yield valid neighbours.
	g := r.Graph()
	for v := 0; v < 40; v++ {
		nbrs := g.Neighbors(NodeID(v))
		if len(nbrs) == 0 {
			continue
		}
		b := nbrs[0]
		ccw := r.nextFaceVertex(NodeID(v), b)
		cw := r.nextFaceVertexCW(NodeID(v), b)
		if !g.HasEdge(b, ccw) || !g.HasEdge(b, cw) {
			t.Fatalf("rotation successors of (%d,%d) invalid", v, b)
		}
	}
}
