package delaunay

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// borderedPoints is a grid of spacing s over [0,w]×[0,h] whose border points
// sit exactly on the lines x = 0, x = w, y = 0 and y = h, so the convex hull
// edges overlap the border paths; interior points carry a tiny jitter.
func borderedPoints(s, w, h float64) []geom.Point {
	var pts []geom.Point
	for x := 0.0; x <= w+1e-9; x += s {
		for y := 0.0; y <= h+1e-9; y += s {
			p := geom.Pt(x, y)
			if x > 0 && y > 0 && x < w-s/2 && y < h-s/2 {
				p = geom.Pt(x+1e-4*math.Sin(13*x+7*y), y+1e-4*math.Cos(11*x-5*y))
			}
			pts = append(pts, p)
		}
	}
	return pts
}

// eulerCounts returns the terms of Euler's formula for g's map: V counts the
// nodes with edges, C their components, and F the rows of the face table. A
// plane map has V − E + F = 2C; rotations that twist it lose faces.
func eulerCounts(g *PlanarGraph) (v, e, f, c int) {
	seen := make([]bool, g.N())
	for s := range g.N() {
		if seen[s] || g.Degree(udg.NodeID(s)) == 0 {
			continue
		}
		c++
		seen[s] = true
		for stack := []udg.NodeID{udg.NodeID(s)}; len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v++
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	faces := g.Faces()
	return v, g.EdgeCount(), faces.Rows(), c
}

// checkEuler fails unless g's map has V − E + F = 2C.
func checkEuler(t *testing.T, g *PlanarGraph) {
	t.Helper()
	if v, e, f, c := eulerCounts(g); v-e+f != 2*c {
		t.Fatalf("V − E + F = %d − %d + %d = %d, want 2C = %d", v, e, f, v-e+f, 2*c)
	}
}

// checkFaceAdjacency holds FacesWithAdjacency to its contract on g: the same
// table as Faces, every slot's row across holding the reversed edge, and
// every node with edges anchored on a row through it (a three-slot row when
// it lies on one), every node without edges on none.
func checkFaceAdjacency(t *testing.T, g *PlanarGraph) {
	t.Helper()
	fa := g.FacesWithAdjacency()
	plain := g.Faces()
	if !slices.Equal(fa.Faces.Off, plain.Off) || !slices.Equal(fa.Faces.Dat, plain.Dat) {
		t.Fatal("the face table differs from Faces")
	}
	if len(fa.Across) != len(fa.Faces.Dat) || len(fa.Anchor) != g.N() {
		t.Fatalf("%d across entries for %d slots, %d anchors for %d nodes", len(fa.Across), len(fa.Faces.Dat), len(fa.Anchor), g.N())
	}
	onTriangle := make([]bool, g.N())
	for f := 0; f < fa.Faces.Rows(); f++ {
		row := fa.Faces.Row(f)
		for i, u := range row {
			v := row[(i+1)%len(row)]
			if len(row) == 3 {
				onTriangle[u] = true
			}
			across := fa.Faces.Row(int(fa.Across[int(fa.Faces.Off[f])+i]))
			found := false
			for j, w := range across {
				found = found || w == v && across[(j+1)%len(across)] == u
			}
			if !found {
				t.Fatalf("row %d across slot %d→%d of row %d lacks the edge %d→%d", fa.Across[int(fa.Faces.Off[f])+i], u, v, f, v, u)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		a := fa.Anchor[v]
		if g.Degree(udg.NodeID(v)) == 0 {
			if a != -1 {
				t.Fatalf("node %d has no edges but anchor %d", v, a)
			}
			continue
		}
		if a < 0 || !slices.Contains(fa.Faces.Row(int(a)), int32(v)) {
			t.Fatalf("node %d has edges but anchor %d does not hold it", v, a)
		}
		if onTriangle[v] && len(fa.Faces.Row(int(a))) != 3 {
			t.Fatalf("node %d lies on a three-slot row but is anchored on a %d-slot one", v, len(fa.Faces.Row(int(a))))
		}
	}
}

// TestFaceAdjacency checks the face adjacency on LDel² graphs, on their
// CH(V) overlays (on the bordered grids the hull runs along the collinear
// border paths), and on overlays after churn removed the edges of random
// nodes and of a ring that cuts off an island. Both overlay maps must also
// be plane by Euler's formula.
func TestFaceAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, c := range []struct {
		name string
		g    *PlanarGraph
	}{
		{"uniform", LDel2Fast(udg.Build(randomPts(rng, 300, 9, 9), 1))},
		{"grid-hole", LDel2Fast(gridWithHole(0.5, 8, 8, 1.5))},
		{"bordered-0.5", LDel2Fast(udg.Build(borderedPoints(0.5, 8, 6), 1))},
		{"bordered-0.6", LDel2Fast(udg.Build(borderedPoints(0.6, 6, 6), 1))},
	} {
		g := c.g
		t.Run(c.name, func(t *testing.T) {
			checkFaceAdjacency(t, g)
			hulled, _ := g.WithHull()
			checkFaceAdjacency(t, hulled)
			checkEuler(t, hulled)

			churned := hulled.Clone()
			c := g.Point(udg.NodeID(g.N() / 2))
			for v := 0; v < g.N(); v++ {
				d := g.Point(udg.NodeID(v)).Dist(c)
				if d >= 1 && d < 2.1 || rng.Intn(20) == 0 {
					churned.RemoveNodeEdges(udg.NodeID(v))
				}
			}
			checkFaceAdjacency(t, churned)
			checkEuler(t, churned)
		})
	}
}
