package routing

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hybridroute/internal/geom"
)

// checkWalk holds Chew's walk of s→t to its contract wherever it answers:
// every triangle of the reference corridor before its first non-triangle
// face is among the triangles the walk crossed, no triangle is crossed
// twice, and each meets the closed segment.
func checkWalk(r *Router, s, t NodeID) error {
	if s == t || r.g.HasEdge(s, t) {
		return nil // answered before any walk
	}
	sc := r.getScratch()
	defer r.putScratch(sc)
	if _, ok := r.chewFromWalk(s, t, sc); !ok {
		return nil
	}
	L := geom.Seg(r.g.Point(s), r.g.Point(t))
	crossed := make(map[int]bool, len(sc.tris))
	for _, lo := range sc.tris {
		f := r.faces.RowOf(lo)
		if crossed[int(f)] {
			return fmt.Errorf("walk %d→%d crosses triangle %d twice", s, t, f)
		}
		crossed[int(f)] = true
		if !rowMeets(r, int(f), L) {
			return fmt.Errorf("walk %d→%d crosses triangle %d, which misses the segment", s, t, f)
		}
	}
	prefix, _ := r.refSplit(r.refCorridor(L))
	for _, f := range prefix {
		if !crossed[f] {
			return fmt.Errorf("walk %d→%d misses corridor triangle %d", s, t, f)
		}
	}
	return nil
}

// rowMeets reports whether the closed polygon of row f meets the closed
// segment L.
func rowMeets(r *Router, f int, L geom.Segment) bool {
	var poly []geom.Point
	for _, v := range r.faces.Row(f) {
		poly = append(poly, r.point(v))
	}
	for j := range poly {
		if geom.SegmentsIntersect(L, geom.Seg(poly[j], poly[(j+1)%len(poly)])) {
			return true
		}
	}
	return geom.PointInPolygon(L.A, poly)
}

// TestWalkCoversCorridor holds Chew's walk to its contract on random pairs
// over every deployment of the differential tests.
func TestWalkCoversCorridor(t *testing.T) {
	pairs := 1000
	if testing.Short() {
		pairs = 200
	}
	forPairs(t, pairs, checkWalk)
}

// FuzzWalk holds Chew's walk to its contract on fuzzed pairs of FuzzChew's
// deployments.
func FuzzWalk(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, a, b uint16, churned bool) {
		r := fuzzRouter(churned)
		n := r.g.N()
		if err := checkWalk(r, NodeID(int(a)%n), NodeID(int(b)%n)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExtendDropsDetour holds a chain step back to the node before the last
// to its contract: the node between goes, and a CH(V) step that goes with it
// no longer cuts the chain's path prefix, so later steps keep the chain a path.
func TestExtendDropsDetour(t *testing.T) {
	r := &Router{adj: []int32{hullBit, 0}} // slot 0 is a CH(V) edge, slot 1 is not
	chain, ok := []NodeID{1, 2}, math.MaxInt
	chain, ok = r.extend(chain, ok, 3, 0)
	if !slices.Equal(chain, []NodeID{1, 2, 3}) || ok != 2 {
		t.Fatalf("after a hull step: %v with path prefix %d, want [1 2 3] and 2", chain, ok)
	}
	chain, ok = r.extend(chain, ok, 2, 0)
	chain, ok = r.extend(chain, ok, 4, 1)
	if !slices.Equal(chain, []NodeID{1, 2, 4}) || ok != math.MaxInt {
		t.Fatalf("after the detour 2, 3, 2 and a step to 4: %v with path prefix %d, want [1 2 4], all a path", chain, ok)
	}
}

// TestAdjacencyEncoding recomputes every slot's adjacency entry without the
// encoding: the twin is the slot of the reversed edge, found by a map over
// all slots; its position counts only in a row of three slots turning
// counterclockwise; and the hull bit marks exactly the edges of the face
// table that g lacks.
func TestAdjacencyEncoding(t *testing.T) {
	eachDeployment(t, func(t *testing.T, _ string, r *Router, _ func() (NodeID, NodeID)) {
		type edge struct{ u, v int32 }
		slotOf := map[edge]int32{}
		head := make([]int32, len(r.faces.Dat))
		rowOf := make([]int, len(r.faces.Dat))
		for f := 0; f < r.faces.Rows(); f++ {
			row := r.faces.Row(f)
			for i, u := range row {
				p := r.faces.Off[f] + int32(i)
				head[p], rowOf[p] = row[(i+1)%len(row)], f
				slotOf[edge{u, head[p]}] = p
			}
		}
		for p, e := range r.adj {
			u, v := r.faces.Dat[p], head[p]
			q, ok := slotOf[edge{v, u}]
			if !ok {
				t.Fatalf("slot %d (%d→%d) has no reversed edge", p, u, v)
			}
			pos, row := notTri, r.faces.Row(rowOf[q])
			if len(row) == 3 && geom.Orient(r.point(row[0]), r.point(row[1]), r.point(row[2])) == geom.CounterClockwise {
				pos = q - r.faces.Off[rowOf[q]]
			}
			hull := !r.g.HasEdge(NodeID(u), NodeID(v))
			if twinOf(e) != q || e&notTri != pos || (e < 0) != hull {
				t.Fatalf("slot %d (%d→%d) reads twin %d at position %d, hull %v; want %d at %d, hull %v",
					p, u, v, twinOf(e), e&notTri, e < 0, q, pos, hull)
			}
		}
	})
}
