// Churn tolerance: topology repair under dynamic membership. The Network
// registers a membership listener on its simulator; when a node crashes or
// recovers (sim.Crash/Recover between runs, or a ChurnSchedule firing in a
// round's serial preamble), the listener rebuilds the routing topology: the
// pristine LDel² is cloned, every dead node's edges are dropped, and the
// router, the holes and every structure the query path reads (hull groups,
// overlay, visibility domains, bays) are derived from the patched graph by
// the same steps a build runs (setLDel, buildDerived). When the last dead
// node recovers, the pristine preprocessing-time topology is restored
// wholesale, so a network that has healed answers queries exactly as it did
// before any churn. A repair's result depends on the dead set alone.
//
// Repair models local recomputation: the affected nodes already hold their
// neighborhoods from preprocessing, so no distributed protocol rounds are
// charged — the paper's O(log n) re-preprocessing bound is the budget this
// shortcut stands in for. Bay dominating sets (phase L) are the one
// deliverable left unrepaired: Bay.DS is never read on the query path, and
// recomputing it would re-run a randomized protocol mid-churn.
//
// Concurrency discipline: membership changes — and therefore repairs — are
// only legal between simulator runs or inside the simulator's serial round
// preamble, never concurrently with engine batch routing. This is the same
// rule sim.Counters already imposes and is pinned by a -race test.

package core

import (
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
)

// RepairStats counts what the membership listener did.
type RepairStats struct {
	Repairs  int // membership changes handled
	Restores int // pristine restores when the dead set emptied
}

// enableChurnRepair keeps the pristine topology aside, builds the liveness
// table and subscribes the Network to the simulator's membership changes.
// Preprocess calls it last; until the first dynamic change it costs nothing
// (the kept topology shares every structure with the live one).
func (nw *Network) enableChurnRepair() {
	nw.base = nw.topology
	nw.dead = make(map[sim.NodeID]bool)
	nw.Live = NewLiveness(nw.G.N())
	nw.Sim.OnMembershipChange(func(v sim.NodeID, up bool) { nw.repairTopology(v, up) })
}

// TopoGeneration returns the number of membership-triggered topology repairs
// so far: a monotone counter the engine mixes into its cache keys so an
// answer cached under one topology is never served after a membership
// change. It mirrors LinkStats.Generation and reads atomically — batch
// workers stamp it into keys while only the (serialized) repair path writes.
func (nw *Network) TopoGeneration() uint64 { return nw.topoGen.Load() }

// DeadCount returns the number of currently crashed nodes the repair layer
// has patched around.
func (nw *Network) DeadCount() int { return len(nw.dead) }

// RepairReport returns the accumulated repair statistics.
func (nw *Network) RepairReport() RepairStats { return nw.repairs }

// repairTopology is the membership listener: rebuild (or restore) the routing
// topology after node v went down (up=false) or came back (up=true).
func (nw *Network) repairTopology(v sim.NodeID, up bool) {
	if up {
		delete(nw.dead, v)
	} else {
		nw.dead[v] = true
	}
	nw.repairs.Repairs++
	defer nw.topoGen.Add(1)

	plan := "restore"
	if len(nw.dead) == 0 {
		nw.topology = nw.base
		nw.repairs.Restores++
	} else {
		// Patch the embedding: clone the pristine LDel² and drop every dead
		// node's edges (rotations stay CCW, so the face structure stays
		// walkable), then derive the rest as a build does. The backend name
		// was validated at preprocessing time, so rebuilding with it cannot
		// fail. Bay.DS (phase L) stays nil: the query path never reads it.
		live := nw.base.LDel.Clone()
		for w := range nw.dead {
			live.RemoveNodeEdges(w)
		}
		nw.setLDel(live)
		if err := nw.buildDerived(nw.Report.Abstraction); err != nil {
			panic("core: churn repair: " + err.Error())
		}
		plan = "patch"
	}
	if nw.tracer != nil {
		nw.tracer.Emit(trace.Event{Kind: trace.KindRepair, Round: nw.Sim.Rounds(), From: int(v), Plan: plan, Value: len(nw.Holes.Holes)})
	}
}
