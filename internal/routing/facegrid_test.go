package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
	"hybridroute/internal/workload"
)

// checkCandidatesCover checks the cell walk's contract on one segment: every
// non-outer face whose closed boundary meets the closed segment is among the
// candidates, and no candidate appears twice.
func checkCandidatesCover(r *Router, L geom.Segment) error {
	cands := r.grid.candidates(L, mem.NewMarks(r.faces.Rows()), nil)
	got := make(map[int]bool, len(cands))
	for _, fi := range cands {
		if got[int(fi)] {
			return fmt.Errorf("segment %v: face %d is a candidate twice", L, fi)
		}
		got[int(fi)] = true
	}
	box := geom.BoundingBox([]geom.Point{L.A, L.B})
	for fi := 0; fi < r.faces.Rows(); fi++ {
		if fi == r.outer || got[fi] {
			continue
		}
		cycle := r.faces.Row(fi)
		for j := range cycle {
			a, b := r.g.Point(NodeID(cycle[j])), r.g.Point(NodeID(cycle[(j+1)%len(cycle)]))
			e := geom.Seg(a, b)
			if box.Overlaps(geom.BoundingBox([]geom.Point{a, b})) && geom.SegmentsIntersect(L, e) {
				return fmt.Errorf("segment %v meets edge %v of face %d, which is no candidate", L, e, fi)
			}
		}
	}
	return nil
}

// gridCorner is the corner of cell (i, j) as the walk computes cell lines.
func gridCorner(g *faceGrid, i, j int) geom.Point {
	return geom.Pt(g.x0+float64(i)*g.cw, g.y0+float64(j)*g.ch)
}

// TestCandidatesCoverSegment holds the supercover walk to its contract on
// the segments where rounding at a cell boundary could drop a cell: between
// exact cell corners, along cell lines, on diagonals of cell blocks, and
// between random node pairs, over every deployment of the differential
// tests.
func TestCandidatesCoverSegment(t *testing.T) {
	segments := 200
	if testing.Short() {
		segments = 40
	}
	for i, d := range referenceDeployments() {
		d, seed := d, int64(i+1)
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			pts, err := d.points()
			if err != nil {
				t.Fatal(err)
			}
			r := routerOver(pts, 1)
			g := r.grid
			rng := rand.New(rand.NewSource(seed))
			check := func(a, b geom.Point) {
				t.Helper()
				if err := checkCandidatesCover(r, geom.Seg(a, b)); err != nil {
					t.Fatal(err)
				}
			}
			corner := func() geom.Point { return gridCorner(g, rng.Intn(g.nx+1), rng.Intn(g.ny+1)) }
			check(gridCorner(g, 0, 0), gridCorner(g, g.nx, g.ny))
			check(gridCorner(g, 0, g.ny), gridCorner(g, g.nx, 0))
			for k := 0; k < segments; k++ {
				// Corner to corner.
				check(corner(), corner())
				// Along a row line and along a column line.
				i, j := rng.Intn(g.nx+1), rng.Intn(g.ny+1)
				check(gridCorner(g, i, j), gridCorner(g, rng.Intn(g.nx+1), j))
				check(gridCorner(g, i, j), gridCorner(g, i, rng.Intn(g.ny+1)))
				// The diagonal and anti-diagonal of a square block of cells.
				m := 1 + rng.Intn(min(g.nx, g.ny))
				i, j = rng.Intn(g.nx-m+1), rng.Intn(g.ny-m+1)
				check(gridCorner(g, i, j), gridCorner(g, i+m, j+m))
				check(gridCorner(g, i, j+m), gridCorner(g, i+m, j))
				// Between two nodes.
				n := r.g.N()
				check(r.g.Point(NodeID(rng.Intn(n))), r.g.Point(NodeID(rng.Intn(n))))
			}
		})
	}
}

// FuzzFaceGridCandidates holds the cell walk to its contract on fuzzed
// segments, their endpoints clamped to the grid's box, over FuzzChew's
// deployment.
func FuzzFaceGridCandidates(f *testing.F) {
	r := fuzzChewGrid()
	g := r.grid
	x1, y1 := g.x0+float64(g.nx)*g.cw, g.y0+float64(g.ny)*g.ch
	f.Add(g.x0, g.y0, x1, y1)                                 // the grid's diagonal
	f.Add(g.x0, y1, x1, g.y0)                                 // its anti-diagonal
	f.Add(g.x0+g.cw, g.y0, g.x0+g.cw, y1)                     // along a column line
	f.Add(g.x0, g.y0+3*g.ch, x1, g.y0+3*g.ch)                 // along a row line
	f.Add(g.x0+g.cw, g.y0+g.ch, g.x0+4*g.cw, g.y0+2*g.ch)     // corner to corner
	f.Add(2.0, 1.2, 7.0, 1.4)                                 // across the hole
	f.Add(g.x0+2*g.cw, g.y0+2*g.ch, g.x0+2*g.cw, g.y0+2*g.ch) // a point on a corner
	f.Add(g.x0+1e-300, g.y0, g.x0+2e-300, y1)                 // almost vertical
	f.Fuzz(func(t *testing.T, ax, ay, bx, by float64) {
		clamp := func(v, lo, hi float64) float64 {
			if !(v >= lo) {
				return lo // NaN too
			}
			return math.Min(v, hi)
		}
		a := geom.Pt(clamp(ax, g.x0, x1), clamp(ay, g.y0, y1))
		b := geom.Pt(clamp(bx, g.x0, x1), clamp(by, g.y0, y1))
		if err := checkCandidatesCover(r, geom.Seg(a, b)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCandidatesPerCorridorFace pins the walk's tightness on
// BenchmarkChewCorridor's deployment and pairs: the candidates of every walk
// the pairs start, per face of the resulting corridors. The count is
// deterministic; the supercover walk yields 2.27, and the half-pitch 3×3
// sampling it replaced yielded 4.15.
func TestCandidatesPerCorridorFace(t *testing.T) {
	const side = 22.0
	c := side / 2
	obstacles := [][]geom.Point{
		workload.StarPolygon(geom.Pt(c, c+0.2), 1.6, 0.7, 5, 0.3),
		workload.RegularPolygon(geom.Pt(c+4.4, c+3.6), 1.3, 6, 0.2),
	}
	sc, err := workload.BorderedGrid(0.55, side, side, 1, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	r := routerOver(sc.Points, sc.Radius)
	rng := rand.New(rand.NewSource(7))
	n := r.g.N()
	cands, faces := 0, 0
	for i := 0; i < 512; i++ {
		s, u := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if s == u || r.g.HasEdge(s, u) {
			continue // Chew answers these before any walk
		}
		L := geom.Seg(r.g.Point(s), r.g.Point(u))
		scr := r.getScratch()
		cands += len(r.grid.candidates(L, scr.faceSeen, nil))
		faces += len(r.corridor(L, scr))
		r.putScratch(scr)
	}
	ratio := float64(cands) / float64(faces)
	t.Logf("%d candidates for %d corridor faces: %.3f per face", cands, faces, ratio)
	if ratio > 2.5 {
		t.Fatalf("%.3f candidates per corridor face, want at most 2.5", ratio)
	}
}
