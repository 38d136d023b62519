// Package core assembles the paper's system: given a deployment (a set of
// nodes with a radio range whose unit disk graph is connected), Preprocess
// runs the full distributed pipeline of Section 5 —
//
//	A/B/C  2-localized Delaunay graph construction (O(1) rounds),
//	D      boundary detection and ring formation (local),
//	E–I    per-ring pointer jumping, leader election, hypercube emulation,
//	       angle-sum hole classification, bitonic sort and distributed
//	       convex hull (O(log² n) rounds),
//	J      overlay tree over long-range links (O(log² n) rounds),
//	K      hull distribution so hull nodes can build the Overlay Delaunay
//	       Graph (O(log n) rounds),
//	L      per-bay-area dominating sets (O(log n) rounds)
//
// — and Route answers queries with c-competitive paths, dispatching the five
// source/target position cases of Section 4.3. All communication runs on the
// synchronous simulator, so rounds, message counts and per-node storage are
// measured, not asserted.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybridroute/internal/abstraction"
	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/hyper"
	"hybridroute/internal/overlaytree"
	"hybridroute/internal/routing"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
	"hybridroute/internal/udg"
	"hybridroute/internal/vis"
)

// Config controls preprocessing.
type Config struct {
	// Strict enables the simulator's knowledge checking (ID-introduction).
	Strict bool
	// Parallel steps the simulator's nodes on a worker pool each round;
	// results are identical to sequential mode (deterministic merge).
	Parallel bool
	// Seed feeds the randomized dominating set protocol.
	Seed uint64
	// Abstraction selects the hole abstraction backend: "hull" (default,
	// the paper's convex-hull abstraction) or "bbox" (the bounding-box
	// overlay, which stays competitive when hole hulls intersect or nest).
	Abstraction string
	// Incremental (only meaningful for Recompute) reuses ring protocol
	// results and hull announcements for holes whose boundary ring —
	// membership and positions — is unchanged since the previous epoch:
	// the bounded-movement-speed extension of the paper's future work,
	// where only the changed parts of the overlay are recomputed.
	Incremental bool
}

// PhaseRounds records communication rounds per pipeline phase.
type PhaseRounds struct {
	LDel     int // A/B/C: neighbourhood exchange for LDel² construction
	Rings    int // E–I: ring protocols (leader, hypercube, sort, hull)
	Tree     int // J: overlay tree construction
	Flood    int // K: hull distribution
	DomSet   int // L: bay-area dominating sets
	Total    int
	RouteAvg float64 // filled by experiments, not by Preprocess
}

// Report summarizes what preprocessing measured.
type Report struct {
	Rounds PhaseRounds
	// Communication work, max over nodes, cumulative over all phases.
	MaxMsgs  int
	MaxWords int
	// Storage in words, max per node class (Theorem 1.2).
	StorageHull     int
	StorageBoundary int
	StorageOther    int
	// Structure counts.
	NumHoles         int
	NumHullNodes     int
	NumBoundaryNodes int
	TreeHeight       int
	HullsIntersect   bool
	// Abstraction is the hole abstraction backend the network was built with.
	Abstraction string
	// RingsReused counts rings whose protocol results were carried over by
	// incremental recomputation (0 for a full run).
	RingsReused int
}

// Bay is a bay area of a hole: the region between two adjacent convex hull
// nodes and the hole boundary between them (Section 4.3).
type Bay struct {
	Hole     int
	HullA    sim.NodeID
	HullB    sim.NodeID
	Interior []sim.NodeID // boundary nodes strictly between HullA and HullB
	DS       map[sim.NodeID]bool
	Polygon  []geom.Point // region polygon: hull chord + boundary path
}

// HullGroup is a maximal set of holes whose abstracted shapes mutually
// intersect, merged into one joint obstacle region — the convex hull of the
// member hulls under the hull backend, the merged bounding box under the
// bbox backend. The paper assumes hulls never intersect (Section 4); merging
// restores the disjointness the routing analysis needs at the cost of a
// coarser obstacle. Groups mirror the abstraction's Regions one to one.
type HullGroup struct {
	Holes []int        // indices into Holes.Holes
	Hull  []geom.Point // merged convex region polygon (CCW)
}

// Network is a preprocessed hybrid network ready to answer routing queries.
type Network struct {
	G    *udg.Graph
	Sim  *sim.Sim
	Tree *overlaytree.Tree

	// topology holds LDel, Holes, Router, Abs, Overlay, Groups and Bays, the
	// fields churn repair replaces.
	topology

	Rings  map[int]map[sim.NodeID]*hyper.RingResult
	Report Report

	// Link holds the per-directed-link loss estimates the reliable transport
	// feeds back after each delivery; the loss-aware planning mode reads them
	// as ETX edge multipliers. It stays empty (generation 0) until some
	// transfer is actually observed failing, so its presence never perturbs
	// lossless runs.
	Link *LinkStats

	// Live is the suspected-node table fed by the same ack telemetry as Link:
	// a next hop that exhausts its retry budget is suspected and planned
	// around until a probation of clean acks readmits it. Like Link it stays
	// inert (empty) on clean runs; a PreprocessStatic network, which has no
	// transport, leaves it nil.
	Live *Liveness

	// tracer is the installed event recorder (nil: tracing disabled). The
	// transport and planner emit through it; SetTracer shares it with the
	// simulator so one recorder sees the whole stack.
	tracer *trace.Tracer

	nodeAtPt     map[geom.Point]sim.NodeID
	ringSnapshot map[string]ringEpochInfo
	reusedHoles  map[int]bool // holes whose ring results were carried over

	// Churn-repair state (churn.go): the pristine preprocessing-time topology,
	// the currently dead nodes, the monotone repair generation the engine's
	// cache keys on, and the repair statistics. All written only from the (serialized)
	// membership listener; topoGen alone is read concurrently and is atomic.
	base    topology
	dead    map[sim.NodeID]bool
	topoGen atomic.Uint64
	repairs RepairStats
}

// topology is the live LDel² and everything derived from it: what a build
// sets once and a churn repair replaces whole.
type topology struct {
	LDel   *delaunay.PlanarGraph
	Holes  *delaunay.HoleSet
	Router *routing.Router

	// Abs is the pluggable hole abstraction (hull groups + waypoint overlay
	// under the default backend, merged bounding boxes under "bbox"); Groups
	// and Overlay are its region and overlay views, kept as fields because
	// the whole query path reads them.
	Abs abstraction.Abstraction

	// Overlay is the waypoint overlay of the abstraction's region corners
	// (what every hull node stores after phase K); VisDomain returns the
	// Section-3 variant over full hole boundary polygons.
	Overlay *vis.Overlay

	Groups []HullGroup
	Bays   []Bay

	hullNodeOf map[geom.Point]sim.NodeID
	// visDomain and groupDomains are built lazily but init-once, so
	// concurrent queries — the batch Engine fires Route from many goroutines
	// — see exactly one construction of each. The vis backends fill their
	// corner rows on first use as well; everything else a query touches is
	// immutable after Preprocess returns.
	visDomain    *lazyDomain
	groupDomains []lazyDomain
}

// ringEpochInfo remembers one ring's identity and result for the
// bounded-movement incremental recomputation (the paper's future-work
// extension of Section 6/7): a ring whose membership and positions are
// unchanged between epochs keeps its protocol results.
type ringEpochInfo struct {
	positions []geom.Point
	results   map[sim.NodeID]*hyper.RingResult
}

// nodeAt resolves a coordinate back to its node (coordinates are unique).
func (nw *Network) nodeAt(p geom.Point) (sim.NodeID, bool) {
	v, ok := nw.nodeAtPt[p]
	return v, ok
}

// buildAbstraction constructs the configured hole abstraction backend over
// the current hole set and projects its regions into the Groups and Overlay
// views the query path reads.
func (nw *Network) buildAbstraction(name string) error {
	abs, err := abstraction.New(name, nw.Holes)
	if err != nil {
		return err
	}
	nw.Abs = abs
	nw.Groups = nil
	for _, r := range abs.Regions() {
		nw.Groups = append(nw.Groups, HullGroup{Holes: r.Holes, Hull: r.Poly})
	}
	nw.Overlay = abs.Overlay()
	nw.Report.Abstraction = abs.Name()
	return nil
}

// setLDel installs ldel as the live LDel² and derives the hole set and the
// router from its one Definition 2.5 map (delaunay.HullMap): holes are
// classified first, then the router takes the map's tables. Preprocess,
// PreprocessStatic and churn repair all call it before buildDerived.
func (nw *Network) setLDel(ldel *delaunay.PlanarGraph) {
	nw.LDel = ldel
	m := ldel.HullMap()
	nw.Holes = m.Holes(nw.G.Radius())
	nw.Router = routing.NewFromMap(m)
}

// buildDerived (re)builds every query-path structure downstream of (LDel,
// Holes): the hole abstraction backend name with its group and overlay views,
// the hull-node and position indexes, the lazily built Section-3 and group
// visibility domains and the bay areas. Preprocess, PreprocessStatic and
// churn repair all call it. Node positions never change once a network is
// built, so a repair keeps the position index.
func (nw *Network) buildDerived(name string) error {
	if err := nw.buildAbstraction(name); err != nil {
		return err
	}
	nw.visDomain = &lazyDomain{}
	for _, h := range nw.Holes.Holes {
		nw.visDomain.polys = append(nw.visDomain.polys, h.Polygon)
	}
	nw.hullNodeOf = make(map[geom.Point]sim.NodeID)
	for _, h := range nw.Holes.Holes {
		for _, v := range h.HullNodes {
			nw.hullNodeOf[nw.G.Point(v)] = v
		}
	}
	if nw.nodeAtPt == nil {
		nw.nodeAtPt = make(map[geom.Point]sim.NodeID, nw.G.N())
		for v := 0; v < nw.G.N(); v++ {
			nw.nodeAtPt[nw.G.Point(sim.NodeID(v))] = sim.NodeID(v)
		}
	}
	nw.groupDomains = make([]lazyDomain, len(nw.Groups))
	for gi, g := range nw.Groups {
		for _, hi := range g.Holes {
			nw.groupDomains[gi].polys = append(nw.groupDomains[gi].polys, nw.Holes.Holes[hi].Polygon)
		}
	}
	nw.Bays = nil
	nw.buildBays()
	return nil
}

// lazyDomain is the visibility domain over polys, built on first use,
// exactly once and race-free.
type lazyDomain struct {
	once  sync.Once
	polys [][]geom.Point
	d     *vis.Domain
}

func (l *lazyDomain) get() *vis.Domain {
	l.once.Do(func() { l.d = vis.NewDomain(l.polys) })
	return l.d
}

// VisDomain returns the Section-3 visibility domain over every hole boundary
// polygon, the structure RouteVisibility plans over, building it on first
// use.
func (nw *Network) VisDomain() *vis.Domain { return nw.visDomain.get() }

// groupDomain returns the visibility domain over the member hole boundary
// polygons of group gi, used for geodesics inside the group's merged hull
// (bay areas and inter-hole corridors).
func (nw *Network) groupDomain(gi int) *vis.Domain { return nw.groupDomains[gi].get() }

// Preprocess runs the full pipeline on a deployment.
func Preprocess(g *udg.Graph, cfg Config) (*Network, error) {
	return preprocess(g, cfg, nil, nil)
}

// Recompute re-runs all position-dependent phases after nodes have moved
// (the dynamic scenario of Section 6): the overlay tree's structure does not
// depend on positions, so it is reused, and only LDel² construction, hole
// detection, the ring protocols, the hull flood and the dominating sets are
// repeated — O(log n) rounds instead of the O(log² n) initial setup.
func (nw *Network) Recompute(g *udg.Graph, cfg Config) (*Network, error) {
	if g.N() != nw.G.N() {
		return nil, fmt.Errorf("core: Recompute requires the same node set (got %d, had %d)", g.N(), nw.G.N())
	}
	if cfg.Abstraction == "" {
		// Keep the backend the network was preprocessed with unless the
		// caller explicitly switches.
		cfg.Abstraction = nw.Report.Abstraction
	}
	return preprocess(g, cfg, nw.Tree, nw)
}

func preprocess(g *udg.Graph, cfg Config, tree *overlaytree.Tree, prev *Network) (*Network, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("core: empty deployment")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("core: UDG is disconnected; the paper assumes strong connectivity")
	}
	nw := &Network{G: g}
	nw.Link = NewLinkStats(0)
	nw.Sim = sim.New(g, sim.Config{Strict: cfg.Strict, Parallel: cfg.Parallel})
	if tree != nil {
		// Tree edges survive node movement; re-grant the ID knowledge the
		// original construction established.
		for v := 0; v < g.N(); v++ {
			id := sim.NodeID(v)
			nw.Sim.Teach(id, tree.Parent[id])
			nw.Sim.Teach(tree.Parent[id], id)
		}
	}

	// Phases A–C: distributed LDel² construction — neighbourhood gossip,
	// local Delaunay-property evaluation and triangle unanimity voting, all
	// as real protocol messages (O(1) rounds). The output provably equals
	// the centralized evaluation of Definition 2.3 (asserted in the
	// delaunay package's tests).
	ldel, err := delaunay.BuildLDel2Distributed(nw.Sim)
	if err != nil {
		return nil, fmt.Errorf("core: LDel phase: %w", err)
	}
	nw.Report.Rounds.LDel = nw.Sim.Rounds()

	// Phase D (local): hole detection via the rotation system, beside the
	// router's face table.
	nw.setLDel(ldel)
	nw.Report.NumHoles = len(nw.Holes.Holes)
	nw.Report.HullsIntersect = nw.Holes.HullsIntersect()

	// Phases E–I: ring protocols for every hole ring and the outer boundary.
	var prevRings map[string]ringEpochInfo
	if prev != nil && cfg.Incremental {
		prevRings = prev.ringSnapshot
	}
	if err := nw.runRingPhase(prevRings); err != nil {
		return nil, fmt.Errorf("core: ring phase: %w", err)
	}

	// Phase J: overlay tree over long-range links (skipped when reusing a
	// tree from a previous epoch, Section 6).
	if tree == nil {
		before := nw.Sim.Rounds()
		built, err := overlaytree.Build(nw.Sim)
		if err != nil {
			return nil, fmt.Errorf("core: overlay tree: %w", err)
		}
		tree = built
		nw.Report.Rounds.Tree = nw.Sim.Rounds() - before
	}
	nw.Tree = tree
	nw.Report.TreeHeight = tree.Height()

	// Phase K: flood hull announcements so every hull node can build the
	// Overlay Delaunay Graph.
	if err := nw.runFloodPhase(); err != nil {
		return nil, fmt.Errorf("core: hull distribution: %w", err)
	}

	// Build the configured hole abstraction (merging intersecting abstracted
	// shapes into disjoint regions — singletons whenever the paper's
	// disjointness assumption holds), the routing structures every hull node
	// now possesses and the bay areas of phase L.
	if err := nw.buildDerived(cfg.Abstraction); err != nil {
		return nil, err
	}

	// Phase L: the bay areas' dominating sets.
	if err := nw.runDomSetPhase(cfg.Seed); err != nil {
		return nil, fmt.Errorf("core: dominating sets: %w", err)
	}

	nw.accountStorage()
	nw.Report.Rounds.Total = nw.Sim.Rounds()
	max := nw.Sim.MaxCounters()
	nw.Report.MaxMsgs = max.Total()
	nw.Report.MaxWords = max.TotalWords()

	// Subscribe to dynamic membership changes: from here on a sim.Crash /
	// Recover (or a ChurnSchedule event) triggers topology repair.
	nw.enableChurnRepair()
	return nw, nil
}

// SetTracer installs (nil: removes) the structured event recorder on the
// network and its simulator: the simulator emits round/send/drop/deliver
// events, the transport per-hop attempt/ack/nack/retry/replan events tagged
// with the planner that produced each leg, and loss-aware planning detour
// events. Tracing never changes routing outcomes — plans, rounds and message
// counts are byte-identical with and without a tracer (pinned by tests).
func (nw *Network) SetTracer(tr *trace.Tracer) {
	nw.tracer = tr
	if nw.Sim != nil {
		nw.Sim.SetTracer(tr)
	}
}

// Tracer returns the installed event recorder (nil when tracing is off).
func (nw *Network) Tracer() *trace.Tracer { return nw.tracer }

// HoleCount returns the number of detected radio holes.
func (nw *Network) HoleCount() int { return len(nw.Holes.Holes) }
