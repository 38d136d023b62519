package routing_test

import (
	"fmt"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/routing"
	"hybridroute/internal/udg"
)

// Example demonstrates the failure mode the paper is built around: greedy
// forwarding dies at a radio hole, face routing recovers, and Chew's
// algorithm reports the hole so the hybrid protocol can plan hull waypoints.
func Example() {
	// A ring of nodes around a hole, plus a source and a target on
	// opposite sides.
	var pts []geom.Point
	for x := 0.0; x <= 6; x += 0.6 {
		for y := 0.0; y <= 6; y += 0.6 {
			p := geom.Pt(x+0.001*y, y+0.001*x)
			if p.Dist(geom.Pt(3, 3)) < 1.7 {
				continue // the radio hole
			}
			pts = append(pts, p)
		}
	}
	g := udg.Build(pts, 1)
	r := routing.New(delaunay.LDel2Fast(g))

	// Source on the west edge, target on the east edge, hole in between.
	s, t := nearest(g, geom.Pt(0, 3)), nearest(g, geom.Pt(6, 3))

	greedy := r.Greedy(s, t)
	face := r.GreedyFace(s, t)
	chew := r.Chew(s, t)
	fmt.Println("greedy delivers:", greedy.Reached)
	fmt.Println("face routing delivers:", face.Reached)
	fmt.Println("chew reports hole:", chew.HoleHit)
	// Output:
	// greedy delivers: false
	// face routing delivers: true
	// chew reports hole: true
}

func nearest(g *udg.Graph, p geom.Point) routing.NodeID {
	best := routing.NodeID(0)
	for v := 1; v < g.N(); v++ {
		if g.Point(routing.NodeID(v)).Dist2(p) < g.Point(best).Dist2(p) {
			best = routing.NodeID(v)
		}
	}
	return best
}
