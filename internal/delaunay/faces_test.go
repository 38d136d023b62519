package delaunay

import (
	"fmt"
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

// checkFaceAdjacency holds g.adjacency to its contract on g: the same
// table as Faces; every slot's twin a slot whose twin it is in turn, running
// from the slot's head to its tail; and every node with edges anchored on a
// slot leaving it (in a three-slot row when it lies on one), every node
// without edges on none.
func checkFaceAdjacency(g *PlanarGraph) error {
	fa, _ := g.adjacency(nil)
	plain := g.Faces()
	if !slices.Equal(fa.Faces.Off, plain.Off) || !slices.Equal(fa.Faces.Dat, plain.Dat) {
		return fmt.Errorf("the face table differs from Faces")
	}
	slots := int32(len(fa.Faces.Dat))
	if len(fa.Twin) != int(slots) || len(fa.Anchor) != g.N() {
		return fmt.Errorf("%d twins for %d slots, %d anchors for %d nodes", len(fa.Twin), slots, len(fa.Anchor), g.N())
	}
	// rowOf and next are the slot arithmetic the adjacency spares its users.
	rowOf := make([]int, slots)
	for f := 0; f < fa.Faces.Rows(); f++ {
		for p := fa.Faces.Off[f]; p < fa.Faces.Off[f+1]; p++ {
			rowOf[p] = f
		}
	}
	next := func(p int32) int32 {
		if f := rowOf[p]; p+1 == fa.Faces.Off[f+1] {
			return fa.Faces.Off[f]
		}
		return p + 1
	}
	onTriangle := make([]bool, g.N())
	for p := int32(0); p < slots; p++ {
		tail, head := fa.Faces.Dat[p], fa.Faces.Dat[next(p)]
		if fa.Faces.Off[rowOf[p]+1]-fa.Faces.Off[rowOf[p]] == 3 {
			onTriangle[tail] = true
		}
		q := fa.Twin[p]
		switch {
		case q < 0 || q >= slots:
			return fmt.Errorf("slot %d (%d→%d) has twin %d, outside the %d slots", p, tail, head, q, slots)
		case fa.Twin[q] != p:
			return fmt.Errorf("slot %d has twin %d, whose twin is %d", p, q, fa.Twin[q])
		case fa.Faces.Dat[q] != head || fa.Faces.Dat[next(q)] != tail:
			return fmt.Errorf("slot %d (%d→%d) has twin %d (%d→%d), not the reversed edge", p, tail, head, q, fa.Faces.Dat[q], fa.Faces.Dat[next(q)])
		}
	}
	for v := 0; v < g.N(); v++ {
		a := fa.Anchor[v]
		if g.Degree(udg.NodeID(v)) == 0 {
			if a != -1 {
				return fmt.Errorf("node %d has no edges but anchor %d", v, a)
			}
			continue
		}
		if a < 0 || a >= slots || fa.Faces.Dat[a] != int32(v) {
			return fmt.Errorf("node %d has edges but anchor %d does not leave it", v, a)
		}
		if f := rowOf[a]; onTriangle[v] && fa.Faces.Off[f+1]-fa.Faces.Off[f] != 3 {
			return fmt.Errorf("node %d lies on a three-slot row but is anchored on a %d-slot one", v, fa.Faces.Off[f+1]-fa.Faces.Off[f])
		}
	}
	return nil
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
			hulled, _ := g.withHull()
			for _, g := range []*PlanarGraph{g, hulled} {
				if err := checkFaceAdjacency(g); err != nil {
					t.Fatal(err)
				}
			}
			checkEuler(t, hulled)

			churned := hulled.Clone()
			c := g.Point(udg.NodeID(g.N() / 2))
			for v := 0; v < g.N(); v++ {
				d := g.Point(udg.NodeID(v)).Dist(c)
				if d >= 1 && d < 2.1 || rng.Intn(20) == 0 {
					churned.RemoveNodeEdges(udg.NodeID(v))
				}
			}
			if err := checkFaceAdjacency(churned); err != nil {
				t.Fatal(err)
			}
			checkEuler(t, churned)
		})
	}
}
