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
	for _, f := range sc.tris {
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
	r := &Router{across: []int32{hullBit, 0}} // slot 0 is a CH(V) edge, slot 1 is not
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
