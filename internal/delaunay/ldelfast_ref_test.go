package delaunay

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

// ldel2Ref is the historical LDel2Fast, kept as the oracle of the
// circumcircle box and of the per-worker canonicalisation: every triangle
// that survives the test against u's neighbours scans the whole 3r box
// around u, enumerated from a map-indexed grid, and all edges go through
// one serial sort.
func ldel2Ref(g *udg.Graph) *PlanarGraph {
	packed := ldel2RangeRef(g, newRefGrid(g.Points(), g.Radius()))
	sort.Slice(packed, func(i, j int) bool { return packed[i] < packed[j] })
	edges := make([][2]int, 0, len(packed))
	for i, e := range packed {
		if i > 0 && e == packed[i-1] {
			continue
		}
		edges = append(edges, [2]int{int(e >> 32), int(uint32(e))})
	}
	return NewPlanarGraph(g.Points(), edges)
}

// refGrid is the historical map-based cell index of the UDG.
type refGrid struct {
	cell  float64
	cells map[[2]int][]int
}

func newRefGrid(pts []geom.Point, r float64) *refGrid {
	idx := &refGrid{cell: r, cells: make(map[[2]int][]int, len(pts))}
	for i, p := range pts {
		k := [2]int{int(math.Floor(p.X / r)), int(math.Floor(p.Y / r))}
		idx.cells[k] = append(idx.cells[k], i)
	}
	return idx
}

// inBox lists the nodes of the cells overlapping [lo, hi], kx outer.
func (idx *refGrid) inBox(lo, hi geom.Point) []udg.NodeID {
	var out []udg.NodeID
	kx0, ky0 := int(math.Floor(lo.X/idx.cell)), int(math.Floor(lo.Y/idx.cell))
	kx1, ky1 := int(math.Floor(hi.X/idx.cell)), int(math.Floor(hi.Y/idx.cell))
	for kx := kx0; kx <= kx1; kx++ {
		for ky := ky0; ky <= ky1; ky++ {
			for _, j := range idx.cells[[2]int{kx, ky}] {
				out = append(out, udg.NodeID(j))
			}
		}
	}
	return out
}

func ldel2RangeRef(g *udg.Graph, idx *refGrid) []uint64 {
	r := g.Radius()
	r2 := r * r
	var out []uint64
	add := func(a, b udg.NodeID) {
		if a > b {
			a, b = b, a
		}
		out = append(out, uint64(a)<<32|uint64(uint32(b)))
	}
	n := g.N()
	mkU, mkV, mkW := mem.NewMarks(n), mem.NewMarks(n), mem.NewMarks(n)
	stamp := func(mk *mem.Marks, base udg.NodeID) {
		mk.Reset()
		mk.Set(int(base))
		for _, y := range g.Neighbors(base) {
			mk.Set(int(y))
		}
	}
	within2 := func(mk *mem.Marks, x udg.NodeID) bool {
		if mk.Has(int(x)) {
			return true
		}
		for _, y := range g.Neighbors(x) {
			if mk.Has(int(y)) {
				return true
			}
		}
		return false
	}
	for u := 0; u < n; u++ {
		pu := g.Point(udg.NodeID(u))
		nbrs := g.Neighbors(udg.NodeID(u))
		for _, v := range nbrs {
			if int(v) < u {
				continue
			}
			pv := g.Point(v)
			gabriel := true
			for _, w := range nbrs {
				if w != v && geom.InDiametralCircle(pu, pv, g.Point(w)) {
					gabriel = false
					break
				}
			}
			if gabriel {
				add(udg.NodeID(u), v)
			}
		}
		var cand []udg.NodeID
		haveCand := false
		for i := 0; i < len(nbrs); i++ {
			v := nbrs[i]
			if int(v) < u {
				continue
			}
			pv := g.Point(v)
			for j := i + 1; j < len(nbrs); j++ {
				w := nbrs[j]
				if int(w) < u {
					continue
				}
				pw := g.Point(w)
				if pv.Dist2(pw) > r2 || geom.Orient(pu, pv, pw) == geom.Collinear {
					continue
				}
				rejected := false
				for _, x := range nbrs {
					if x != v && x != w && geom.InCircle(pu, pv, pw, g.Point(x)) {
						rejected = true
						break
					}
				}
				if rejected {
					continue
				}
				if !haveCand {
					cand = idx.inBox(geom.Point{X: pu.X - 3*r, Y: pu.Y - 3*r}, geom.Point{X: pu.X + 3*r, Y: pu.Y + 3*r})
					haveCand = true
				}
				stamp(mkU, udg.NodeID(u))
				stamp(mkV, v)
				stamp(mkW, w)
				for _, x := range cand {
					if x == udg.NodeID(u) || x == v || x == w {
						continue
					}
					px := g.Point(x)
					du := px.Dist2(pu) <= 4*r2
					dv := px.Dist2(pv) <= 4*r2
					dw := px.Dist2(pw) <= 4*r2
					if !du && !dv && !dw || !geom.InCircle(pu, pv, pw, px) {
						continue
					}
					if (du && within2(mkU, x)) || (dv && within2(mkV, x)) || (dw && within2(mkW, x)) {
						rejected = true
						break
					}
				}
				if !rejected {
					add(udg.NodeID(u), v)
					add(v, w)
					add(udg.NodeID(u), w)
				}
			}
		}
	}
	return out
}

// fullScanTriangles calls fn for every triangle LDel2Fast scans for a
// rejector beyond u's neighbours: the triangles with minimum vertex u,
// sides within r, not collinear, and no neighbour of u inside the
// circumcircle.
func fullScanTriangles(g *udg.Graph, fn func(u, v, w udg.NodeID)) {
	r2 := g.Radius() * g.Radius()
	for u := 0; u < g.N(); u++ {
		pu := g.Point(udg.NodeID(u))
		nbrs := g.Neighbors(udg.NodeID(u))
		for i, v := range nbrs {
			for _, w := range nbrs[i+1:] {
				if int(v) < u || int(w) < u {
					continue
				}
				pv, pw := g.Point(v), g.Point(w)
				if pv.Dist2(pw) > r2 || geom.Orient(pu, pv, pw) == geom.Collinear {
					continue
				}
				rejected := false
				for _, x := range nbrs {
					if x != v && x != w && geom.InCircle(pu, pv, pw, g.Point(x)) {
						rejected = true
						break
					}
				}
				if !rejected {
					fn(udg.NodeID(u), v, w)
				}
			}
		}
	}
}

// sameRotations fails t unless want and got have identical rotations.
func sameRotations(t *testing.T, want, got *PlanarGraph) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	for v := 0; v < want.N(); v++ {
		wr, gr := want.Neighbors(udg.NodeID(v)), got.Neighbors(udg.NodeID(v))
		if len(wr) != len(gr) {
			t.Fatalf("node %d rotation %v, want %v", v, gr, wr)
		}
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("node %d rotation %v, want %v", v, gr, wr)
			}
		}
	}
}

// fieldGraph is the scale series' deployment: a bordered grid of spacing
// 0.55 and radius 1 with a star and a hexagon near the centre.
func fieldGraph(t testing.TB, side float64) *udg.Graph {
	t.Helper()
	c := side / 2
	obstacles := [][]geom.Point{
		workload.StarPolygon(geom.Pt(c, c+0.2), 1.6, 0.7, 5, 0.3),
		workload.RegularPolygon(geom.Pt(c+4.4, c+3.6), 1.3, 6, 0.2),
	}
	sc, err := workload.BorderedGrid(0.55, side, side, 1, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Build()
}

// nearCollinear places n points along a jittered straight line, where
// triangles are too thin for the circle box, and n along a jittered arc of
// radius 5r, where the circles are wider than the 3r box.
func nearCollinear(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, 2*n)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Pt(float64(i)*0.3, rng.Float64()*1e-4))
	}
	for i := 0; i < n; i++ {
		a := float64(i) * 0.06
		pts = append(pts, geom.Pt(5*math.Cos(a)+rng.Float64()*1e-3, 20+5*math.Sin(a)+rng.Float64()*1e-3))
	}
	return pts
}

// TestLDel2FastMatchesReference pins the circumcircle box, the map-free
// cell index and the per-worker canonicalisation to the historical
// construction, rotation for rotation, on the 10⁴-node field shape, the
// holes-cold layout, uniform clouds, exact lattices (cocircular
// quadruples everywhere, and one with every point twice) and a
// near-collinear set that forces the 3r box.
func TestLDel2FastMatchesReference(t *testing.T) {
	type named struct {
		name string
		g    *udg.Graph
	}
	sets := []named{{"field-1e4", fieldGraph(t, 54.45)}}

	holes := workload.RandomConvexObstacles(2, 24, 82.5, 82.5, 0.8, 1.6, 2)
	hc, err := workload.BorderedGrid(0.55, 82.5, 82.5, 1, holes)
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, named{"holes-cold", hc.Build()})

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, 4000)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*36-18, rng.Float64()*36-18)
		}
		sets = append(sets, named{fmt.Sprintf("uniform-%d", seed), udg.Build(pts, 1)})
	}
	for _, lat := range []struct {
		step, r float64
		half    int
	}{{0.5, 1, 20}, {0.25, 0.75, 10}, {1, 1.5, 20}} {
		var pts []geom.Point
		for i := -lat.half; i <= lat.half; i++ {
			for j := -lat.half; j <= lat.half; j++ {
				pts = append(pts, geom.Pt(float64(i)*lat.step, float64(j)*lat.step))
			}
		}
		sets = append(sets, named{fmt.Sprintf("lattice-%g-r%g", lat.step, lat.r), udg.Build(pts, lat.r)})
	}
	var dups []geom.Point // every lattice point twice
	for i := -3; i <= 3; i++ {
		for j := -3; j <= 3; j++ {
			dups = append(dups, geom.Pt(float64(i)*0.5, float64(j)*0.5), geom.Pt(float64(j)*0.5, float64(i)*0.5))
		}
	}
	sets = append(sets, named{"lattice-duplicates", udg.Build(dups, 1)})
	thin := udg.Build(nearCollinear(1, 100), 1)
	sets = append(sets, named{"near-collinear", thin})

	for _, s := range sets {
		t.Run(s.name, func(t *testing.T) {
			sameRotations(t, ldel2Ref(s.g), LDel2Fast(s.g))
		})
	}

	// The near-collinear set must reach the 3r box for both reasons.
	thinTri, wideTri := 0, 0
	fullScanTriangles(thin, func(u, v, w udg.NodeID) {
		pu, pv, pw := thin.Point(u), thin.Point(v), thin.Point(w)
		if _, _, ok := circleBox(pu, pv, pw, thin.Radius()); ok {
			return
		}
		bx, by := pv.X-pu.X, pv.Y-pu.Y
		cx, cy := pw.X-pu.X, pw.Y-pu.Y
		if math.Abs(2*(bx*cy-by*cx)) < circleMinFat*max(bx*bx+by*by, cx*cx+cy*cy, pv.Dist2(pw)) {
			thinTri++
		} else {
			wideTri++
		}
	})
	if thinTri == 0 || wideTri == 0 {
		t.Errorf("near-collinear set reaches the 3r box through %d thin and %d wide triangles, want both > 0", thinTri, wideTri)
	}
}

// TestRejectorCandidatesPerTriangle pins how tight the circumcircle box is:
// on the 10⁴-node field shape a triangle that reaches the full rejector
// scan reads at most 12 candidates on average (the 3r box holds ~150).
func TestRejectorCandidatesPerTriangle(t *testing.T) {
	g := fieldGraph(t, 54.45)
	r := g.Radius()
	tris, cands, box3 := 0, 0, 0
	fullScanTriangles(g, func(u, v, w udg.NodeID) {
		tris++
		lo, hi, ok := circleBox(g.Point(u), g.Point(v), g.Point(w), r)
		if !ok {
			pu := g.Point(u)
			lo, hi = geom.Point{X: pu.X - 3*r, Y: pu.Y - 3*r}, geom.Point{X: pu.X + 3*r, Y: pu.Y + 3*r}
			box3++
		}
		g.ForNodesInBox(lo, hi, func(udg.NodeID) { cands++ })
	})
	if tris == 0 {
		t.Fatal("no triangle reached the full scan")
	}
	per := float64(cands) / float64(tris)
	t.Logf("%d full-scan triangles (%d on the 3r box), %.1f candidates each", tris, box3, per)
	if per > 12 {
		t.Errorf("%.1f candidates per full-scan triangle, want <= 12", per)
	}
}

// FuzzLDel2Fast compares LDel2Fast with the definitional LDelK(·, 2),
// rotation for rotation, on up to 40 finite points with |coordinate| ≤ 10³.
// With snap set the points lie on a 1/64 lattice, where cocircular and
// collinear triples are common.
func FuzzLDel2Fast(f *testing.F) {
	seed := make([]byte, 0, 160)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		seed = binary.LittleEndian.AppendUint16(seed, uint16(rng.Intn(65536)))
		seed = binary.LittleEndian.AppendUint16(seed, uint16(rng.Intn(65536)))
	}
	f.Add(seed, 4.0, 1.5, false)
	f.Add(seed, 2.0, 1.0, true)
	f.Add(seed[:48], 1000.0, 400.0, false)
	f.Add([]byte{0, 128, 0, 128, 64, 128, 0, 128, 0, 128, 64, 128, 64, 128, 64, 128}, 1.0, 0.05, true)
	f.Fuzz(func(t *testing.T, data []byte, span, r float64, snap bool) {
		if !(span > 0 && span <= 1000) || !(r > 0 && r <= 4000) {
			return
		}
		var pts []geom.Point
		for len(data) >= 4 && len(pts) < 40 {
			x := (float64(binary.LittleEndian.Uint16(data)) - 32768) / 32768 * span
			y := (float64(binary.LittleEndian.Uint16(data[2:])) - 32768) / 32768 * span
			data = data[4:]
			if snap {
				x, y = math.Round(x*64)/64, math.Round(y*64)/64
			}
			// Exact duplicates are dropped: a point repeated many times
			// sends nearly every InCircle test to exact arithmetic and an
			// execution to seconds. TestLDel2FastMatchesReference covers
			// duplicates on a lattice.
			if p := geom.Pt(x, y); !slices.Contains(pts, p) {
				pts = append(pts, p)
			}
		}
		g := udg.Build(pts, r)
		sameRotations(t, LDelK(g, 2), LDel2Fast(g))
	})
}

// BenchmarkLDel2Field builds LDel² of the scale series' field shape at 10⁴
// and 10⁵ nodes; run it with -cpu 1,2 to separate the single-core cost from
// the parallel part.
func BenchmarkLDel2Field(b *testing.B) {
	for _, s := range []struct {
		name string
		side float64
	}{{"n=1e4", 54.45}, {"n=1e5", 173.25}} {
		g := fieldGraph(b, s.side)
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LDel2Fast(g)
			}
		})
	}
}
