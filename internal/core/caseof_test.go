package core

import (
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/workload"
)

// prepTwoHoleScenario builds a network with two well-separated obstacles so
// both hull groups are populated and cross-group queries (case 3) exist.
func prepTwoHoleScenario(t *testing.T) *Network {
	t.Helper()
	obstacles := [][]geom.Point{
		workload.RegularPolygon(geom.Pt(3, 4), 1.5, 24, 0.1),
		workload.RegularPolygon(geom.Pt(9, 4), 1.5, 24, 0.1),
	}
	sc, err := workload.JitteredGrid(0.55, 12, 8, 1, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Preprocess(sc.Build(), Config{Strict: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// caseOfSamples classifies every node of the network once so the table test
// below can draw representatives of each position class.
type caseOfSamples struct {
	outside  []sim.NodeID         // RegionAt < 0
	interior map[int][]sim.NodeID // group -> nodes strictly inside, not in a bay
	inBay    map[int][]sim.NodeID // bay index -> nodes inside that bay
	bayGroup map[int]int          // bay index -> owning group
}

func classifyForCaseOf(nw *Network) caseOfSamples {
	cs := caseOfSamples{
		interior: map[int][]sim.NodeID{},
		inBay:    map[int][]sim.NodeID{},
		bayGroup: map[int]int{},
	}
	holeGroup := map[int]int{}
	for gi, g := range nw.Groups {
		for _, hi := range g.Holes {
			holeGroup[hi] = gi
		}
	}
	for bi := range nw.Bays {
		cs.bayGroup[bi] = holeGroup[nw.Bays[bi].Hole]
	}
	for v := 0; v < nw.G.N(); v++ {
		p := nw.G.Point(sim.NodeID(v))
		gi := nw.Abs.RegionAt(p)
		if gi < 0 {
			cs.outside = append(cs.outside, sim.NodeID(v))
			continue
		}
		if bi := nw.bayIndexOf(p); bi >= 0 {
			cs.inBay[bi] = append(cs.inBay[bi], sim.NodeID(v))
		} else {
			cs.interior[gi] = append(cs.interior[gi], sim.NodeID(v))
		}
	}
	return cs
}

// TestCaseOfTable pins the five-way position classification of Section 4.3:
// representatives of every class are paired and caseOf must dispatch each
// pair to exactly the documented case.
func TestCaseOfTable(t *testing.T) {
	nw := prepTwoHoleScenario(t)
	cs := classifyForCaseOf(nw)

	if len(cs.outside) < 2 {
		t.Fatal("scenario must have nodes outside all hulls")
	}
	// Two distinct groups that contain nodes (interior or in a bay).
	groupNode := map[int]sim.NodeID{}
	for gi, vs := range cs.interior {
		if len(vs) > 0 {
			groupNode[gi] = vs[0]
		}
	}
	for bi, vs := range cs.inBay {
		if _, ok := groupNode[cs.bayGroup[bi]]; !ok && len(vs) > 0 {
			groupNode[cs.bayGroup[bi]] = vs[0]
		}
	}
	if len(groupNode) < 2 {
		t.Fatalf("need two populated hull groups, got %d", len(groupNode))
	}
	var gA, gB int
	first := true
	for gi := range groupNode {
		if first {
			gA, first = gi, false
		} else if gi != gA {
			gB = gi
		}
	}
	// A bay with two nodes, and two distinct bays of one group.
	sameBay := [2]sim.NodeID{-1, -1}
	diffBays := [2]sim.NodeID{-1, -1}
	for bi, vs := range cs.inBay {
		if len(vs) >= 2 && sameBay[0] < 0 {
			sameBay = [2]sim.NodeID{vs[0], vs[1]}
		}
		for bj, ws := range cs.inBay {
			if bj != bi && cs.bayGroup[bj] == cs.bayGroup[bi] && len(vs) > 0 && len(ws) > 0 && diffBays[0] < 0 {
				diffBays = [2]sim.NodeID{vs[0], ws[0]}
			}
		}
	}
	if sameBay[0] < 0 {
		t.Fatal("scenario must have a bay holding two nodes")
	}

	cases := []struct {
		name string
		s, t sim.NodeID
		want int
		skip bool
	}{
		{"both outside all hulls", cs.outside[0], cs.outside[1], 1, false},
		{"outside vs inside a group", cs.outside[0], groupNode[gA], 2, false},
		{"inside vs outside (reversed)", groupNode[gA], cs.outside[0], 2, false},
		{"different groups", groupNode[gA], groupNode[gB], 3, false},
		{"same group, different bays", diffBays[0], diffBays[1], 4, diffBays[0] < 0},
		{"same bay", sameBay[0], sameBay[1], 5, false},
	}
	// Same group, one node in a bay and one in the inter-hole region, is also
	// case 4; use it when no group has two populated bays.
	for bi, vs := range cs.inBay {
		gi := cs.bayGroup[bi]
		if len(vs) > 0 && len(cs.interior[gi]) > 0 {
			cases = append(cases, struct {
				name string
				s, t sim.NodeID
				want int
				skip bool
			}{"same group, bay vs non-bay interior", vs[0], cs.interior[gi][0], 4, false})
			break
		}
	}
	ran4 := false
	for _, tc := range cases {
		if tc.skip {
			continue
		}
		if tc.want == 4 {
			ran4 = true
		}
		got, gs, gt := nw.caseOf(tc.s, tc.t)
		if got != tc.want {
			t.Errorf("%s: caseOf(%d,%d) = %d (groups %d,%d), want case %d",
				tc.name, tc.s, tc.t, got, gs, gt, tc.want)
		}
	}
	if !ran4 {
		t.Fatal("no case-4 pair available in the scenario; enlarge it")
	}
}

// TestCaseOfHullAndBayBoundaries pins the boundary semantics the classifier
// is built on: a node sitting exactly on a group's hull corner is NOT inside
// the group (containment is strict), while a node on a bay polygon's boundary
// IS inside the bay (polygon membership includes the boundary).
func TestCaseOfHullAndBayBoundaries(t *testing.T) {
	nw := prepTwoHoleScenario(t)
	cs := classifyForCaseOf(nw)
	if len(cs.outside) == 0 {
		t.Fatal("need an outside node")
	}

	hullCorners := 0
	for gi := range nw.Groups {
		for _, p := range nw.Groups[gi].Hull {
			v, ok := nw.nodeAt(p)
			if !ok {
				continue
			}
			hullCorners++
			if got := nw.Abs.RegionAt(p); got == gi {
				t.Errorf("hull corner node %d of group %d counts as inside its own hull; containment must be strict", v, gi)
			}
			// Against an outside node the pair is case 1 (or 2 if the corner
			// happens to lie inside another group's hull) — never 3, 4, or 5.
			if c, _, _ := nw.caseOf(v, cs.outside[0]); c > 2 {
				t.Errorf("hull corner %d vs outside node: case %d, want 1 or 2", v, c)
			}
		}
	}
	if hullCorners == 0 {
		t.Fatal("no hull corner resolved to a node")
	}

	// Bay boundary: every Interior boundary node lies on its bay's polygon
	// outline; whenever it is strictly inside the group hull, bayIndexOf must
	// place it in a bay of the same hole.
	pinned := 0
	for bi := range nw.Bays {
		for _, v := range nw.Bays[bi].Interior {
			p := nw.G.Point(v)
			if nw.Abs.RegionAt(p) < 0 {
				continue
			}
			got := nw.bayIndexOf(p)
			if got < 0 {
				t.Errorf("bay-boundary node %d (bay %d) not assigned to any bay; polygon membership must include the boundary", v, bi)
				continue
			}
			if nw.Bays[got].Hole != nw.Bays[bi].Hole {
				t.Errorf("bay-boundary node %d assigned to a bay of hole %d, want hole %d", v, nw.Bays[got].Hole, nw.Bays[bi].Hole)
			}
			pinned++
		}
	}
	if pinned == 0 {
		t.Fatal("no bay-boundary node exercised the membership rule")
	}
}
