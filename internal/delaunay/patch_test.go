package delaunay

import (
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

// TestDetectHolesLiveMatchesDetectHoles pins that the live detector with no
// reuse is exactly DetectHoles.
func TestDetectHolesLiveMatchesDetectHoles(t *testing.T) {
	g := gridWithHole(0.6, 6, 6, 1.5)
	ld := LDelK(g, 2)
	a := DetectHoles(ld, g.Radius())
	b, reused := DetectHolesLive(ld, g.Radius(), nil)
	if reused != 0 {
		t.Errorf("reused %d holes with nil prev", reused)
	}
	if len(a.Holes) != len(b.Holes) {
		t.Fatalf("hole counts differ: %d vs %d", len(a.Holes), len(b.Holes))
	}
	for i := range a.Holes {
		if ringKey(a.Holes[i].Ring, a.Holes[i].Outer) != ringKey(b.Holes[i].Ring, b.Holes[i].Outer) {
			t.Errorf("hole %d rings differ", i)
		}
	}
}

// TestDetectHolesLiveReuse crashes a node far from the existing hole and
// verifies that re-detection reuses the untouched hole's geometry (same Hull
// backing array) and puts the dead node on no hole.
func TestDetectHolesLiveReuse(t *testing.T) {
	g := gridWithHole(0.6, 8, 8, 1.5)
	if !g.Connected() {
		t.Skip("UDG disconnected")
	}
	ld := LDelK(g, 2)
	prev := DetectHoles(ld, g.Radius())
	if len(prev.Holes) == 0 {
		t.Fatal("scenario must contain a hole")
	}
	// Pick a victim on no hole boundary with alive neighbours.
	victim := udg.NodeID(-1)
	for v := 0; v < ld.N(); v++ {
		if len(prev.NodeHoles[udg.NodeID(v)]) == 0 && ld.Degree(udg.NodeID(v)) >= 3 {
			onOuter := false
			for _, w := range prev.OuterBoundary {
				if w == udg.NodeID(v) {
					onOuter = true
					break
				}
			}
			if !onOuter {
				victim = udg.NodeID(v)
				break
			}
		}
	}
	if victim < 0 {
		t.Skip("no interior non-boundary node found")
	}
	live := ld.Clone()
	live.RemoveNodeEdges(victim)
	cur, reused := DetectHolesLive(live, g.Radius(), prev)
	if reused == 0 {
		t.Error("expected at least one hole ring to be reused")
	}
	// Every reused hole shares its geometry with the matching prev hole.
	prevByRing := make(map[string]*Hole, len(prev.Holes))
	for _, h := range prev.Holes {
		prevByRing[ringKey(h.Ring, h.Outer)] = h
	}
	shared := 0
	for _, h := range cur.Holes {
		if old, ok := prevByRing[ringKey(h.Ring, h.Outer)]; ok {
			if len(h.Hull) > 0 && len(old.Hull) > 0 && &h.Hull[0] == &old.Hull[0] {
				shared++
			}
		}
		for _, v := range h.Ring {
			if v == victim {
				t.Errorf("dead node %d appears on hole %d boundary", victim, h.ID)
			}
		}
	}
	if shared != reused {
		t.Errorf("shared-geometry holes %d != reported reused %d", shared, reused)
	}
	// IDs must be dense and match indices after reuse.
	for i, h := range cur.Holes {
		if h.ID != i {
			t.Errorf("hole %d has ID %d", i, h.ID)
		}
	}
	// NodeHoles must be rebuilt against the new indices.
	for v, idxs := range cur.NodeHoles {
		for _, i := range idxs {
			found := false
			for _, w := range cur.Holes[i].Ring {
				if w == v {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("NodeHoles[%d] lists hole %d which lacks it", v, i)
			}
		}
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
	cur, _ := DetectHolesLive(live, g.Radius(), nil)
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
	hs, _ := DetectHolesLive(live, g.Radius(), nil)
	if len(hs.Holes) != 1 || !hs.Holes[0].Outer {
		t.Fatalf("%d holes after the crash, want one outer hole", len(hs.Holes))
	}
	want := []udg.NodeID{nearest(geom.Pt(4.95, 0)), nearest(geom.Pt(6.05, 0)), nearest(geom.Pt(5.5, 0.55))}
	if ring := hs.Holes[0].Ring; len(ring) != 3 || ringKey(ring, true) != ringKey(want, true) {
		t.Fatalf("the notch's ring is %v, want the triangle %v", ring, want)
	}
}
