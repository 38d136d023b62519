package delaunay_test

import (
	"fmt"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

func ExampleTriangulate() {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2), geom.Pt(1, 1),
	}
	tr := delaunay.Triangulate(pts)
	fmt.Println("triangles:", len(tr.Triangles()))
	fmt.Println("edges:", len(tr.Edges()))
	// Output:
	// triangles: 4
	// edges: 8
}

func ExampleLDel2Fast() {
	// A 3x3 grid with unit radio range: every edge of the 2-localized
	// Delaunay graph respects the transmission range.
	var pts []geom.Point
	for x := 0.0; x < 3; x++ {
		for y := 0.0; y < 3; y++ {
			pts = append(pts, geom.Pt(x*0.7, y*0.7+0.01*x))
		}
	}
	g := udg.Build(pts, 1)
	ld := delaunay.LDel2Fast(g)
	ok := true
	for _, e := range ld.Edges() {
		if g.Point(udg.NodeID(e[0])).Dist(g.Point(udg.NodeID(e[1]))) > 1 {
			ok = false
		}
	}
	fmt.Println("all edges within range:", ok)
	fmt.Println("connected:", ld.Connected())
	// Output:
	// all edges within range: true
	// connected: true
}
