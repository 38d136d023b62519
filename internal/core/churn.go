// Churn tolerance: incremental topology repair under dynamic membership.
// The Network registers a membership listener on its simulator; when a node
// crashes or recovers (sim.Crash/Recover between runs, or a ChurnSchedule
// firing in a round's serial preamble), the listener patches the routing
// topology in place — the live LDel² drops the dead node's edges, holes are
// re-detected with the untouched rings' derived geometry reused, and every
// structure the query path reads (router, hull groups, overlay, visibility
// domains, bays) is rebuilt against the patched graph. A membership change
// whose neighborhood touches more than one existing hole falls back to a
// full recomputation (no geometry reuse); when the last dead node recovers,
// the pristine preprocessing-time topology is restored wholesale, so a
// network that has healed answers queries exactly as it did before any churn.
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
	"hybridroute/internal/abstraction"
	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/routing"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
	"hybridroute/internal/vis"
)

// RepairStats counts what the membership listener did.
type RepairStats struct {
	Repairs     int // membership changes handled
	Incremental int // repairs that reused untouched hole geometry
	Full        int // repairs recomputed without reuse (multi-hole patches)
	Restores    int // pristine restores when the dead set emptied
	HolesReused int // hole rings whose derived geometry was carried over
}

// baseTopo is the pristine preprocessing-time topology, kept aside so the
// Network can restore it exactly once every crashed node has recovered.
type baseTopo struct {
	ldel         *delaunay.PlanarGraph
	holes        *delaunay.HoleSet
	router       *routing.Router
	abs          abstraction.Abstraction
	overlay      *vis.Overlay
	visDomain    *lazyDomain
	groups       []HullGroup
	bays         []Bay
	hullNodeOf   map[geom.Point]sim.NodeID
	groupDomains []lazyDomain
}

// enableChurnRepair snapshots the pristine topology, builds the liveness
// table and subscribes the Network to the simulator's membership changes.
// Called at the end of preprocessing; until the first dynamic change it costs
// nothing (the snapshot shares every structure with the live fields).
func (nw *Network) enableChurnRepair() {
	nw.base = &baseTopo{
		ldel:         nw.LDel,
		holes:        nw.Holes,
		router:       nw.Router,
		abs:          nw.Abs,
		overlay:      nw.Overlay,
		visDomain:    nw.visDomain,
		groups:       nw.Groups,
		bays:         nw.Bays,
		hullNodeOf:   nw.hullNodeOf,
		groupDomains: nw.groupDomains,
	}
	nw.dead = make(map[sim.NodeID]bool)
	nw.Live = NewLiveness(nw.G.N())
	if nw.Sim != nil {
		nw.Sim.OnMembershipChange(func(v sim.NodeID, up bool) { nw.repairTopology(v, up) })
	}
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

// repairTopology is the membership listener: patch (or restore) the routing
// topology after node v went down (up=false) or came back (up=true).
func (nw *Network) repairTopology(v sim.NodeID, up bool) {
	if nw.base == nil {
		return
	}
	if up {
		delete(nw.dead, v)
	} else {
		nw.dead[v] = true
	}
	nw.repairs.Repairs++
	defer nw.topoGen.Add(1)

	if len(nw.dead) == 0 {
		b := nw.base
		nw.LDel, nw.Holes, nw.Router = b.ldel, b.holes, b.router
		nw.Abs, nw.Overlay, nw.visDomain = b.abs, b.overlay, b.visDomain
		nw.Groups, nw.Bays = b.groups, b.bays
		nw.hullNodeOf = b.hullNodeOf
		nw.groupDomains = b.groupDomains
		nw.repairs.Restores++
		if nw.tracer != nil {
			nw.tracer.Emit(trace.Event{Kind: trace.KindRepair, Round: nw.Sim.Rounds(), From: int(v), Plan: "restore", Value: len(nw.Holes.Holes)})
		}
		return
	}

	// Patch the embedding: clone the pristine LDel² and drop every dead
	// node's edges (rotations stay CCW, so the face structure stays walkable).
	live := nw.base.ldel.Clone()
	for w := range nw.dead {
		live.RemoveNodeEdges(w)
	}

	// Incremental vs full: the patch is local iff v's closed neighborhood
	// (v plus its pristine LDel neighbours) touches at most one hole of the
	// current topology — then untouched rings keep their derived geometry.
	// Multi-hole patches can merge or split holes non-locally, so they
	// recompute everything from the patched graph.
	touched := map[int]bool{}
	for _, hi := range nw.Holes.NodeHoles[v] {
		touched[hi] = true
	}
	for _, w := range nw.base.ldel.Neighbors(v) {
		for _, hi := range nw.Holes.NodeHoles[w] {
			touched[hi] = true
		}
	}
	var prev *delaunay.HoleSet
	incremental := len(touched) <= 1
	if incremental {
		prev = nw.Holes
	}
	holes, reused := delaunay.DetectHolesLive(live, nw.G.Radius(), prev)

	nw.LDel = live
	nw.Holes = holes
	nw.Router = routing.New(live)
	// The backend name was validated at preprocessing time, so rebuilding
	// with it cannot fail. Bay.DS (phase L) stays nil: the query path never
	// reads it.
	if err := nw.buildDerived(nw.Report.Abstraction); err != nil {
		panic("core: churn repair: " + err.Error())
	}

	plan := "full"
	if incremental {
		plan = "incremental"
		nw.repairs.Incremental++
		nw.repairs.HolesReused += reused
	} else {
		nw.repairs.Full++
	}
	if nw.tracer != nil {
		nw.tracer.Emit(trace.Event{Kind: trace.KindRepair, Round: nw.Sim.Rounds(), From: int(v), Plan: plan, Value: len(holes.Holes)})
	}
}
