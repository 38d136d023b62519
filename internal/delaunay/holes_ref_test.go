package delaunay

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

// refDetectHoles is static hole detection as it stood before WithHull, the
// oracle TestDetectHolesMatchesReference holds DetectHoles to. Its overlay
// joins consecutive corners of geom.ConvexHull over every point, which drops
// the collinear ones, and maps each corner back to a node through a map; it
// skips no face for its area.
func refDetectHoles(ldel *PlanarGraph, r float64) *HoleSet {
	hs := &HoleSet{}
	faces := ldel.Faces()
	outer := ldel.OuterFaceIndex(&faces)
	for i := 0; i < faces.Rows(); i++ {
		cycle := faces.Row(i)
		if i == outer {
			hs.OuterBoundary = nodeIDs(cycle)
			continue
		}
		if DistinctNodes(cycle) >= 4 {
			hs.addHole(ldel, nodeIDs(cycle), false)
		}
	}

	hullPts := geom.ConvexHull(ldel.Points())
	if len(hullPts) >= 3 {
		ptIndex := make(map[geom.Point]udg.NodeID, ldel.N())
		for v := 0; v < ldel.N(); v++ {
			ptIndex[ldel.Point(udg.NodeID(v))] = udg.NodeID(v) // the highest ID wins
		}
		gbar := ldel.Clone()
		type hedge struct{ a, b udg.NodeID }
		longHull := make(map[hedge]bool)
		for i := range hullPts {
			pa, pb := hullPts[i], hullPts[(i+1)%len(hullPts)]
			a, b := ptIndex[pa], ptIndex[pb]
			gbar.AddEdge(a, b)
			if pa.Dist(pb) > r {
				longHull[hedge{a, b}] = true
				longHull[hedge{b, a}] = true
			}
		}
		if len(longHull) > 0 {
			bfaces := gbar.Faces()
			bouter := gbar.OuterFaceIndex(&bfaces)
			for i := 0; i < bfaces.Rows(); i++ {
				cycle := bfaces.Row(i)
				if i == bouter || DistinctNodes(cycle) < 3 {
					continue
				}
				n := len(cycle)
				for j := 0; j < n; j++ {
					if longHull[hedge{udg.NodeID(cycle[j]), udg.NodeID(cycle[(j+1)%n])}] {
						hs.addHole(ldel, nodeIDs(cycle), true)
						break
					}
				}
			}
		}
	}
	return hs
}

// exactLinesPoints is a bordered grid of k×k cells without the points in or
// near the obstacle, whose border and both diagonals are exact and whose
// other points carry the workload generators' jitter: the routing tests'
// exact-lines deployment.
func exactLinesPoints(k int, spacing float64, obstacle []geom.Point) []geom.Point {
	var pts []geom.Point
	for i := 0; i <= k; i++ {
		for j := 0; j <= k; j++ {
			x, y := spacing*float64(i), spacing*float64(j)
			p := geom.Pt(x, y)
			if i != 0 && j != 0 && i != k && j != k && i != j && i+j != k {
				p = geom.Pt(x+1e-4*math.Sin(13*x+7*y), y+1e-4*math.Cos(11*x-5*y))
			}
			near := geom.PointInPolygon(p, obstacle)
			for e := range obstacle {
				near = near || geom.DistPointSegment(p, obstacle[e], obstacle[(e+1)%len(obstacle)]) < 0.05
			}
			if !near {
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// TestDetectHolesMatchesReference holds DetectHoles to refDetectHoles, hole
// for hole (ring and ring order, polygon, hull, hull nodes, box), with the
// outer boundary, on the static deployments the delaunay
// and routing tests build for hole detection and routing, and on the cold
// benchmark layouts. On the bordered grids the two overlays differ, the
// reference's hull edges lying over the collinear border paths, yet neither
// reports an outer hole there. Every deployment is connected, as every
// network the pipeline builds is: on a disconnected graph DetectHoles skips
// the clockwise outline of each further component, which the reference
// reports as an inner hole.
func TestDetectHolesMatchesReference(t *testing.T) {
	type deployment struct {
		name string
		pts  func() ([]geom.Point, error)
	}
	fixed := func(g *udg.Graph) func() ([]geom.Point, error) {
		return func() ([]geom.Point, error) { return g.Points(), nil }
	}
	scenario := func(sc *workload.Scenario, err error) func() ([]geom.Point, error) {
		return func() ([]geom.Point, error) {
			if err != nil {
				return nil, err
			}
			return sc.Points, nil
		}
	}
	hole := workload.RegularPolygon(geom.Pt(5, 5), 1.6, 6, 0.3)
	translated := func() ([]geom.Point, error) {
		sc, err := workload.BorderedGrid(0.5, 10, 10, 1, [][]geom.Point{hole})
		if err != nil {
			return nil, err
		}
		pts := make([]geom.Point, len(sc.Points))
		for i, p := range sc.Points {
			pts[i] = p.Add(geom.Pt(1e5, 1e5))
		}
		return pts, nil
	}
	var cShape []geom.Point // TestDetectOuterHole's notched square
	for x := 0.0; x <= 6; x += 0.55 {
		for y := 0.0; y <= 6; y += 0.55 {
			if !(x > 2.2 && y > 2.2 && y < 3.8) {
				cShape = append(cShape, geom.Pt(x+1e-4*math.Sin(9*x+3*y), y+1e-4*math.Cos(7*x-2*y)))
			}
		}
	}
	deployments := []deployment{
		{"grid-hole-6", fixed(gridWithHole(0.6, 6, 6, 1.5))},
		{"grid-hole-8", fixed(gridWithHole(0.6, 8, 8, 1.5))},
		{"dense-grid", fixed(gridWithHole(0.5, 5, 5, 0))},
		{"c-shape", func() ([]geom.Point, error) { return cShape, nil }},
		{"random", func() ([]geom.Point, error) { return randomPts(rand.New(rand.NewSource(20)), 300, 9, 9), nil }},
		{"bordered-points-0.5", func() ([]geom.Point, error) { return borderedPoints(0.5, 8, 6), nil }},
		{"bordered-points-0.6", func() ([]geom.Point, error) { return borderedPoints(0.6, 6, 6), nil }},
		{"uniform", scenario(workload.Uniform(3, 350, 8.5, 8.5, 1))},
		{"obstacles", scenario(workload.WithObstacles(4, 520, 11, 11, 1, workload.RandomConvexObstacles(4, 4, 11, 11, 0.8, 1.6, 2)))},
		{"city", scenario(workload.CityGrid(7, 2, 2, 3.2, 3.2, 2.4, 1, 5.5))},
		{"maze", scenario(workload.Maze(2, 14, 10, 7, 8.4, 1.2, 1, 900))},
		{"jittered", scenario(workload.JitteredGrid(0.55, 10, 10, 1, [][]geom.Point{hole}))},
		{"bordered-0.5", scenario(workload.BorderedGrid(0.5, 10, 10, 1, [][]geom.Point{hole}))},
		{"bordered-0.55", scenario(workload.BorderedGrid(0.55, 10, 10, 1, [][]geom.Point{hole}))},
		{"exact-lines", func() ([]geom.Point, error) { return exactLinesPoints(20, 0.5, hole), nil }},
		{"translated", translated},
		{"holes-cold", scenario(workload.BorderedGrid(0.55, 82.5, 82.5, 1, workload.RandomConvexObstacles(2, 24, 82.5, 82.5, 0.8, 1.6, 2)))},
	}
	if !testing.Short() {
		deployments = append(deployments, deployment{"field-cold", fixed(fieldGraph(t, 173.25))})
	}
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			pts, err := d.pts()
			if err != nil {
				t.Fatal(err)
			}
			ld := LDel2Fast(udg.Build(pts, 1))
			got, want := DetectHoles(ld, 1), refDetectHoles(ld, 1)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("DetectHoles found %d holes, the reference %d, or they differ", len(got.Holes), len(want.Holes))
			}
		})
	}
}
