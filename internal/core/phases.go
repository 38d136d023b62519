package core

import (
	"fmt"
	"sort"

	"hybridroute/internal/domset"
	"hybridroute/internal/geom"
	"hybridroute/internal/hyper"
	"hybridroute/internal/overlaytree"
	"hybridroute/internal/sim"
)

// dedupeCycle removes repeated nodes from a face cycle, keeping first
// occurrences in order; protocol rings need distinct members.
func dedupeCycle(cycle []sim.NodeID) []sim.NodeID {
	seen := make(map[sim.NodeID]bool, len(cycle))
	var out []sim.NodeID
	for _, v := range cycle {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// canonicalRingKey identifies a ring independently of its epoch: the cycle
// rotated so the minimum node comes first.
func canonicalRingKey(cycle []sim.NodeID) string {
	if len(cycle) == 0 {
		return ""
	}
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	out := make([]byte, 0, 8*len(cycle))
	for i := 0; i < len(cycle); i++ {
		v := cycle[(min+i)%len(cycle)]
		out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
	}
	return string(out)
}

// ringUnchanged reports whether a previous epoch ran the protocol on an
// identical ring: same cycle and identical member positions.
func (nw *Network) ringUnchanged(prev map[string]ringEpochInfo, cycle []sim.NodeID) (map[sim.NodeID]*hyper.RingResult, bool) {
	info, ok := prev[canonicalRingKey(cycle)]
	if !ok || len(info.positions) != len(cycle) {
		return nil, false
	}
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	for i := 0; i < len(cycle); i++ {
		v := cycle[(min+i)%len(cycle)]
		if !nw.G.Point(v).Eq(info.positions[i]) {
			return nil, false
		}
	}
	return info.results, true
}

// runRingPhase runs the pointer-jumping / hypercube / sort / hull protocol
// suite on every hole ring and on the outer boundary (phases E–I). When a
// previous epoch's snapshot is supplied (incremental recomputation), rings
// whose membership and positions are unchanged reuse their results without
// any communication.
func (nw *Network) runRingPhase(prev map[string]ringEpochInfo) error {
	before := nw.Sim.Rounds()
	nw.Rings = map[int]map[sim.NodeID]*hyper.RingResult{}
	nw.ringSnapshot = map[string]ringEpochInfo{}

	type pending struct {
		id    int
		cycle []sim.NodeID
	}
	var all []pending
	for i, h := range nw.Holes.Holes {
		if ring := dedupeCycle(h.Ring); len(ring) >= 3 {
			all = append(all, pending{i, ring})
		}
	}
	if ob := dedupeCycle(nw.LDel.OuterBoundary()); len(ob) >= 3 {
		all = append(all, pending{len(nw.Holes.Holes), ob})
	}

	var specs []hyper.RingSpec
	nw.reusedHoles = map[int]bool{}
	for _, p := range all {
		if results, ok := nw.ringUnchanged(prev, p.cycle); ok {
			nw.Rings[p.id] = results
			nw.recordRingSnapshot(p.cycle, results)
			nw.reusedHoles[p.id] = true
			continue
		}
		specs = append(specs, hyper.RingSpec{Ring: p.id, Cycle: p.cycle})
	}
	nw.Report.RingsReused = len(nw.reusedHoles)

	if len(specs) > 0 {
		// Ring members must know each other; consecutive ring nodes are
		// either LDel² neighbours (UDG-known) or convex-hull-edge endpoints
		// introduced during hole detection — grant that knowledge explicitly.
		for _, spec := range specs {
			k := len(spec.Cycle)
			for i, v := range spec.Cycle {
				nw.Sim.Teach(v, spec.Cycle[(i+1)%k])
				nw.Sim.Teach(v, spec.Cycle[(i-1+k)%k])
			}
		}
		results, _, err := hyper.RunRings(nw.Sim, specs)
		if err != nil {
			return err
		}
		for ring, members := range results {
			nw.Rings[ring] = members
		}
		for _, spec := range specs {
			nw.recordRingSnapshot(spec.Cycle, results[spec.Ring])
		}
	}
	nw.Report.Rounds.Rings = nw.Sim.Rounds() - before
	return nil
}

func (nw *Network) recordRingSnapshot(cycle []sim.NodeID, results map[sim.NodeID]*hyper.RingResult) {
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	pos := make([]geom.Point, len(cycle))
	for i := 0; i < len(cycle); i++ {
		pos[i] = nw.G.Point(cycle[(min+i)%len(cycle)])
	}
	nw.ringSnapshot[canonicalRingKey(cycle)] = ringEpochInfo{positions: pos, results: results}
}

// hullAnnouncement is the payload flooded in phase K: one hole's convex hull.
type hullAnnouncement struct {
	Hole int
	Hull []hyper.HullVertex
}

// runFloodPhase distributes every hole's hull over the overlay tree
// (Section 5.5): each hull leader injects its hull; after O(tree height)
// rounds every node holds every hull and hull nodes can assemble the
// Overlay Delaunay Graph.
func (nw *Network) runFloodPhase() error {
	before := nw.Sim.Rounds()
	initial := map[sim.NodeID][]overlaytree.Item{}
	for holeID, members := range nw.Rings {
		if holeID >= len(nw.Holes.Holes) {
			continue // outer boundary: its hull is not a hole abstraction
		}
		if nw.reusedHoles[holeID] {
			// Incremental epoch: this hole's hull is unchanged, so every
			// node still holds its announcement from the previous epoch.
			continue
		}
		// The ring leader announces the hull.
		var leader sim.NodeID = -1
		var res *hyper.RingResult
		for _, r := range members {
			leader = r.Leader
			res = members[r.Leader]
			break
		}
		if res == nil || leader < 0 {
			continue
		}
		ids := make([]sim.NodeID, len(res.Hull))
		for i, hv := range res.Hull {
			ids[i] = hv.ID
		}
		initial[leader] = append(initial[leader], overlaytree.Item{
			Src:       leader,
			Kind:      holeID,
			Payload:   hullAnnouncement{Hole: holeID, Hull: res.Hull},
			WordCount: 1 + 3*len(res.Hull),
			IDs:       ids,
		})
	}
	if _, err := overlaytree.Flood(nw.Sim, nw.Tree, initial); err != nil {
		return err
	}
	nw.Report.Rounds.Flood = nw.Sim.Rounds() - before
	return nil
}

// buildBays derives the bay areas of every hole: for each pair of adjacent
// hull nodes, the boundary nodes strictly between them plus the region
// polygon (hull chord closed by the boundary path).
func (nw *Network) buildBays() {
	for hi, h := range nw.Holes.Holes {
		ring := dedupeCycle(h.Ring)
		k := len(ring)
		if k < 3 || len(h.HullNodes) < 2 {
			continue
		}
		posOf := make(map[sim.NodeID]int, k)
		for i, v := range ring {
			posOf[v] = i
		}
		// Hull nodes in ring order.
		hull := append([]sim.NodeID(nil), h.HullNodes...)
		sort.Slice(hull, func(a, b int) bool { return posOf[hull[a]] < posOf[hull[b]] })
		for i := range hull {
			a := hull[i]
			b := hull[(i+1)%len(hull)]
			var interior []sim.NodeID
			poly := []geom.Point{nw.G.Point(a)}
			for p := (posOf[a] + 1) % k; p != posOf[b]; p = (p + 1) % k {
				interior = append(interior, ring[p])
				poly = append(poly, nw.G.Point(ring[p]))
			}
			poly = append(poly, nw.G.Point(b))
			if len(interior) == 0 {
				continue // adjacent on the ring: no bay between them
			}
			nw.Bays = append(nw.Bays, Bay{
				Hole: hi, HullA: a, HullB: b,
				Interior: interior,
				Polygon:  poly,
			})
		}
	}
}

// runDomSetPhase computes a dominating set of the boundary path of every bay
// area (phase L). Bays with disjoint node sets run in the same batch, as in
// the paper, so rounds do not scale with the number of holes.
func (nw *Network) runDomSetPhase(seed uint64) error {
	before := nw.Sim.Rounds()
	remaining := make([]*Bay, 0, len(nw.Bays))
	for i := range nw.Bays {
		if len(nw.Bays[i].Interior) > 0 {
			remaining = append(remaining, &nw.Bays[i])
		}
	}
	for len(remaining) > 0 {
		batchAdj := map[sim.NodeID][]sim.NodeID{}
		used := map[sim.NodeID]bool{}
		var batch []*Bay
		var next []*Bay
		for _, bay := range remaining {
			overlap := false
			for _, v := range bay.Interior {
				if used[v] {
					overlap = true
					break
				}
			}
			if overlap {
				next = append(next, bay)
				continue
			}
			for _, v := range bay.Interior {
				used[v] = true
			}
			for v, nbrs := range domset.PathAdj(bay.Interior) {
				batchAdj[v] = nbrs
			}
			batch = append(batch, bay)
		}
		// Path members must know each other (they are ring neighbours).
		for v, nbrs := range batchAdj {
			for _, w := range nbrs {
				nw.Sim.Teach(v, w)
			}
		}
		ds, err := domset.Run(nw.Sim, batchAdj, seed)
		if err != nil {
			return fmt.Errorf("domset batch: %w", err)
		}
		for _, bay := range batch {
			bay.DS = map[sim.NodeID]bool{}
			for _, v := range bay.Interior {
				if ds[v] {
					bay.DS[v] = true
				}
			}
		}
		remaining = next
	}
	nw.Report.Rounds.DomSet = nw.Sim.Rounds() - before
	return nil
}

// accountStorage computes per-node persistent storage in words and the
// per-class maxima of Theorem 1.2, generalized over the hole abstraction:
//   - hull nodes store the waypoint overlay of all region corners plus every
//     hole's abstracted shape (3 words per hull node under the hull backend,
//     O(1) words per hole under bbox),
//   - boundary nodes store their own hole's abstracted shape plus
//     ring-protocol pointers,
//   - all other nodes store O(1): tree parent/children and UDG neighbours.
func (nw *Network) accountStorage() {
	totalHullWords := 0
	for hi := range nw.Holes.Holes {
		totalHullWords += nw.Abs.HoleWords(hi)
	}
	overlayWords := 2 * nw.Abs.EdgeCount()

	isBoundary := map[sim.NodeID]bool{}
	holeOf := map[sim.NodeID][]int{}
	for i, h := range nw.Holes.Holes {
		for _, v := range h.Ring {
			isBoundary[v] = true
			holeOf[v] = append(holeOf[v], i)
		}
	}
	isHull := map[sim.NodeID]bool{}
	for p := range nw.hullNodeOf {
		isHull[nw.hullNodeOf[p]] = true
	}

	hullMax, boundMax, otherMax := 0, 0, 0
	nHull, nBound := 0, 0
	for v := 0; v < nw.G.N(); v++ {
		id := sim.NodeID(v)
		base := 2 + len(nw.Tree.Children[id]) + 1 // position, parent, children
		words := base
		if isBoundary[id] {
			// Ring pointers (O(log k)) + own holes' abstracted shapes + DS
			// membership.
			for _, hi := range holeOf[id] {
				h := nw.Holes.Holes[hi]
				words += nw.Abs.HoleWords(hi) + 2*ceilLog2(len(h.Ring)) + 1
			}
		}
		if isHull[id] {
			words += totalHullWords + overlayWords
		}
		switch {
		case isHull[id]:
			nHull++
			if words > hullMax {
				hullMax = words
			}
		case isBoundary[id]:
			nBound++
			if words > boundMax {
				boundMax = words
			}
		default:
			if words > otherMax {
				otherMax = words
			}
		}
	}
	nw.Report.StorageHull = hullMax
	nw.Report.StorageBoundary = boundMax
	nw.Report.StorageOther = otherMax
	nw.Report.NumHullNodes = nHull
	nw.Report.NumBoundaryNodes = nBound
}

func ceilLog2(x int) int {
	d := 0
	for 1<<d < x {
		d++
	}
	return d
}
