package delaunay

import (
	"slices"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

func TestRemoveNodeEdges(t *testing.T) {
	g := gridWithHole(0.6, 6, 6, 1.5)
	ld := LDelK(g, 2)
	v := udg.NodeID(7)
	before := append([]udg.NodeID(nil), ld.Neighbors(v)...)
	if len(before) == 0 {
		t.Fatal("test node has no edges")
	}
	live := ld.Clone()
	nbrs := live.RemoveNodeEdges(v)
	if len(nbrs) != len(before) {
		t.Fatalf("returned %d former neighbours, want %d", len(nbrs), len(before))
	}
	if live.Degree(v) != 0 {
		t.Error("node must be isolated after removal")
	}
	for _, w := range before {
		if live.HasEdge(w, v) {
			t.Errorf("edge (%d, %d) survived removal", w, v)
		}
		// The surviving rotation must stay CCW-sorted (valid rotation system):
		// re-walking the faces must not panic and must cover all half-edges.
	}
	faces := live.Faces()
	half := 0
	for i := 0; i < faces.Rows(); i++ {
		half += len(faces.Row(i))
	}
	if half != 2*live.EdgeCount() {
		t.Errorf("face walk covers %d half-edges, want %d", half, 2*live.EdgeCount())
	}
	// The original graph is untouched (Clone isolation).
	if ld.Degree(v) != len(before) {
		t.Error("RemoveNodeEdges on the clone mutated the original")
	}
}

// TestDetectHolesLiveExcludesDeadHullPoint pins the overlay's extent: a dead
// node that was a convex-hull vertex has no edges, so it contributes no hull
// edges, and the overlay is built over the live perimeter.
func TestDetectHolesLiveExcludesDeadHullPoint(t *testing.T) {
	// A dense strip with one far-out spike; the spike is the hull vertex.
	var pts []geom.Point
	for x := 0.0; x <= 4; x += 0.5 {
		for y := 0.0; y <= 1; y += 0.5 {
			pts = append(pts, geom.Pt(x+1e-5*float64(len(pts)), y))
		}
	}
	spike := len(pts)
	pts = append(pts, geom.Pt(2, 1.9))
	g := udg.Build(pts, 1)
	ld := LDelK(g, 2)
	live := ld.Clone()
	live.RemoveNodeEdges(udg.NodeID(spike))
	cur := DetectHoles(live, g.Radius())
	for _, h := range cur.Holes {
		for _, v := range h.Ring {
			if v == udg.NodeID(spike) {
				t.Fatalf("dead spike %d on hole boundary %v", spike, h.Ring)
			}
		}
	}
}

// TestDetectHolesLiveNotch crashes the border node at (5.5, 0) of a hole-free
// bordered grid. Its neighbours on the straight border are 1.1 apart, more
// than the radio range, so the hull edge between them closes a notch, and
// Definition 2.5 makes the triangle behind it an outer hole.
func TestDetectHolesLiveNotch(t *testing.T) {
	sc, err := workload.BorderedGrid(0.55, 10.45, 10.45, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Build()
	ld := LDel2Fast(g)
	if hs := DetectHoles(ld, g.Radius()); len(hs.Holes) != 0 {
		t.Fatalf("the pristine grid has %d holes", len(hs.Holes))
	}
	nearest := func(p geom.Point) udg.NodeID {
		best := udg.NodeID(0)
		for v := range g.N() {
			if g.Point(udg.NodeID(v)).Dist(p) < g.Point(best).Dist(p) {
				best = udg.NodeID(v)
			}
		}
		return best
	}
	live := ld.Clone()
	live.RemoveNodeEdges(nearest(geom.Pt(5.5, 0)))
	hs := DetectHoles(live, g.Radius())
	if len(hs.Holes) != 1 || !hs.Holes[0].Outer {
		t.Fatalf("%d holes after the crash, want one outer hole", len(hs.Holes))
	}
	want := []udg.NodeID{nearest(geom.Pt(4.95, 0)), nearest(geom.Pt(6.05, 0)), nearest(geom.Pt(5.5, 0.55))}
	ring := hs.Holes[0].Ring
	if i := slices.Index(ring, want[0]); len(ring) != 3 || i < 0 || !slices.Equal(slices.Concat(ring[i:], ring[:i]), want) {
		t.Fatalf("the notch's ring is %v, want the triangle %v", ring, want)
	}
}
