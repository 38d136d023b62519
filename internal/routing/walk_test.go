package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/workload"
)

// checkWalk holds the corridor walk of s→t to its contract: the faces it
// tests are distinct, every face of the reference corridor is among them,
// and each meets the closed segment.
func checkWalk(r *Router, s, t NodeID) error {
	if s == t || r.g.HasEdge(s, t) {
		return nil // answered before any walk
	}
	L := geom.Seg(r.g.Point(s), r.g.Point(t))
	sc := r.getScratch()
	defer r.putScratch(sc)
	r.corridor(L, s, t, sc)
	walked := make(map[int]bool, len(sc.walked))
	for _, f := range sc.walked {
		if walked[int(f)] {
			return fmt.Errorf("walk %d→%d tests face %d twice", s, t, f)
		}
		walked[int(f)] = true
		if !rowMeets(r, int(f), L) {
			return fmt.Errorf("walk %d→%d tests face %d, which misses the segment", s, t, f)
		}
	}
	for _, f := range r.refCorridor(L) {
		if !walked[f] {
			return fmt.Errorf("walk %d→%d misses corridor face %d", s, t, f)
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

// TestWalkCoversCorridor holds the walk to its contract on random pairs over
// every deployment of the differential tests.
func TestWalkCoversCorridor(t *testing.T) {
	pairs := 1000
	if testing.Short() {
		pairs = 200
	}
	forPairs(t, pairs, checkWalk)
}

// FuzzWalk holds the walk to its contract on fuzzed pairs of FuzzChew's
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

// TestWalkedFacesPerCorridorFace pins the walk's tightness on
// BenchmarkChewCorridor's 41×41 deployment and pairs: the faces every walk
// tests, per face of the resulting corridors. The count is deterministic;
// the walk tests 1.000 faces per corridor face, where the face grid it
// replaced offered 2.27.
func TestWalkedFacesPerCorridorFace(t *testing.T) {
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
	walked, faces := 0, 0
	for i := 0; i < 512; i++ {
		s, u := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if s == u || r.g.HasEdge(s, u) {
			continue // Chew answers these before any walk
		}
		scr := r.getScratch()
		faces += len(r.corridor(geom.Seg(r.g.Point(s), r.g.Point(u)), s, u, scr))
		walked += len(scr.walked)
		r.putScratch(scr)
	}
	ratio := float64(walked) / float64(faces)
	t.Logf("%d faces walked for %d corridor faces: %.3f per face", walked, faces, ratio)
	if ratio > 1.01 {
		t.Fatalf("%.3f faces walked per corridor face, want at most 1.01", ratio)
	}
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
