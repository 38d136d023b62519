package core

import (
	"math"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/routing"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
	"hybridroute/internal/udg"
	"hybridroute/internal/vis"
)

// Outcome is the result of one routing query.
type Outcome struct {
	routing.Result
	// Case is the position case of Section 4.3 (1: both outside hulls,
	// 2: one endpoint in a bay, 3: bays of different holes, 4: different
	// bays of the same hole, 5: same bay).
	Case int
	// Waypoints is the hull-node waypoint plan the message followed (empty
	// when plain Chew reached the target directly).
	Waypoints []sim.NodeID
	// LongRange counts long-range messages used by the query (position
	// lookup plus the hit node's path computation handshake).
	LongRange int
	// PlanFallback is set when the geometric plan failed and the query fell
	// back to the LDel² shortest path.
	PlanFallback bool
	// LossDetour is set when loss-aware planning replaced the geometric plan
	// with an ETX-weighted LDel² path because the plan crossed links with
	// observed loss.
	LossDetour bool
}

// bayIndexOf returns the index of the bay containing p (a point strictly
// inside some group hull), or -1.
func (nw *Network) bayIndexOf(p geom.Point) int {
	gi := nw.groupAt(p)
	if gi < 0 {
		return -1
	}
	for _, hi := range nw.Groups[gi].Holes {
		for i := range nw.Bays {
			if nw.Bays[i].Hole == hi && geom.PointInPolygon(p, nw.Bays[i].Polygon) {
				return i
			}
		}
	}
	return -1
}

// caseOf classifies a query per Section 4.3, generalized to hull groups:
// endpoints inside the same bay are case 5; inside the same group's merged
// hull (different bays or the inter-hole region) case 4; different groups
// case 3; exactly one inside case 2; both outside case 1.
func (nw *Network) caseOf(s, t sim.NodeID) (int, int, int) {
	gs := nw.groupAt(nw.G.Point(s))
	gt := nw.groupAt(nw.G.Point(t))
	switch {
	case gs < 0 && gt < 0:
		return 1, gs, gt
	case gs >= 0 && gt >= 0 && gs == gt:
		bs := nw.bayIndexOf(nw.G.Point(s))
		bt := nw.bayIndexOf(nw.G.Point(t))
		if bs >= 0 && bs == bt {
			return 5, gs, gt
		}
		return 4, gs, gt
	case gs >= 0 && gt >= 0:
		return 3, gs, gt
	default:
		return 2, gs, gt
	}
}

// planSource supplies the expensive reusable sub-results of route planning:
// per-group geodesics, hull exit plans and overlay waypoint paths. Network
// itself is the uncached source; Engine layers a sharded LRU cache on top of
// the same Network so batched and repeated queries skip recomputation.
// Implementations must be safe for concurrent use and must return slices the
// caller may append to. label names the implementation in trace events so a
// traced query shows which planner produced each leg.
type planSource interface {
	groupPathNodes(gi int, s, t sim.NodeID) ([]sim.NodeID, bool)
	exitPlan(gi int, v sim.NodeID, toward geom.Point) ([]sim.NodeID, sim.NodeID, bool)
	overlayWaypoints(a, b sim.NodeID) ([]sim.NodeID, bool)
	label() string
}

// label names the uncached planner in trace events.
func (nw *Network) label() string { return "network" }

// Route answers a query with the convex-hull-abstraction protocol of
// Section 4.3: the source learns the target position over a long-range
// link, sends via Chew's algorithm, and on hitting a hole boundary the hit
// node computes a hull-node waypoint path through the Overlay Delaunay
// Graph; bay-area endpoints are routed via the extreme-point strategy of
// Section 4.4.
func (nw *Network) Route(s, t sim.NodeID) Outcome {
	return nw.route(nw, s, t, false)
}

// RouteVisibility answers a query with the Section-3 protocol: identical
// flow, but hole nodes store the full Visibility Graph of all hole boundary
// nodes (larger storage, 17.7-competitive versus ≤ 35.37).
func (nw *Network) RouteVisibility(s, t sim.NodeID) Outcome {
	return nw.route(nw, s, t, true)
}

func (nw *Network) route(src planSource, s, t sim.NodeID, useVisibility bool) Outcome {
	out := Outcome{}
	c, gs, gt := nw.caseOf(s, t)
	out.Case = c
	if s == t {
		// Self-queries never touch a long-range link: the source already
		// knows its own position.
		out.Result = routing.Result{Path: []sim.NodeID{s}, Reached: true}
		return out
	}
	out.LongRange = 2 // position query + response over long-range

	if useVisibility {
		// The visibility-graph variant treats hole boundary polygons as the
		// obstacles, which subsumes all bay-area cases.
		return nw.routeVisibility(s, t, out)
	}

	switch c {
	case 1:
		return nw.routeOutside(src, s, t, out)
	case 4, 5:
		// Same merged hull: geodesic inside the group around its hole
		// boundaries (Section 4.4's extreme-point routing; the geodesic's
		// interior vertices are exactly the extreme points).
		wps, ok := src.groupPathNodes(gs, s, t)
		if !ok {
			return nw.globalFallback(s, t, out)
		}
		out.LongRange++ // dominating-set lookup of the bay structure
		out.Waypoints = wps
		out.Result = nw.Router.ChewVia(wps)
		return out
	default: // cases 2 and 3: exit/enter merged hulls via hull corners
		head, exitNode, ok := src.exitPlan(gs, s, nw.G.Point(t))
		if !ok {
			return nw.globalFallback(s, t, out)
		}
		tailRev, enterNode, ok := src.exitPlan(gt, t, nw.G.Point(s))
		if !ok {
			return nw.globalFallback(s, t, out)
		}
		var mid []sim.NodeID
		if exitNode != enterNode {
			m, ok := src.overlayWaypoints(exitNode, enterNode)
			if !ok {
				return nw.globalFallback(s, t, out)
			}
			mid = m
		}
		wps := append(make([]sim.NodeID, 0, len(head)+len(mid)+len(tailRev)), head...)
		wps = appendWaypoints(wps, mid)
		wps = appendWaypoints(wps, reverseIDs(tailRev))
		out.Waypoints = wps
		out.Result = nw.Router.ChewVia(wps)
		return out
	}
}

// routeOutside implements case 1 faithfully: Chew toward t; if a hole is
// hit, the hit node inserts t into its Overlay Delaunay Graph, computes a
// shortest path, and the message follows the hull-node waypoints.
func (nw *Network) routeOutside(src planSource, s, t sim.NodeID, out Outcome) Outcome {
	first := nw.Router.Chew(s, t)
	if first.Reached {
		out.Result = first
		return out
	}
	if !first.HoleHit || len(first.Path) == 0 {
		return nw.globalFallback(s, t, out)
	}
	h0 := first.HitNode
	out.LongRange++ // h0 consults its stored overlay graph (local) and the plan travels with the message
	var wps []sim.NodeID
	var ok bool
	if g0 := nw.groupAt(nw.G.Point(h0)); g0 >= 0 {
		// The hit node sits inside its group's merged hull (bay area or
		// inter-hole region): exit first.
		head, exitNode, exOK := src.exitPlan(g0, h0, nw.G.Point(t))
		if !exOK {
			return nw.globalFallback(s, t, out)
		}
		mid, mOK := src.overlayWaypoints(exitNode, t)
		if !mOK {
			return nw.globalFallback(s, t, out)
		}
		wps = appendWaypoints(head, mid)
		ok = true
	} else {
		wps, ok = src.overlayWaypoints(h0, t)
	}
	if !ok {
		return nw.globalFallback(s, t, out)
	}
	rest := nw.Router.ChewVia(wps)
	if !rest.Reached {
		return nw.globalFallback(s, t, out)
	}
	out.Waypoints = wps
	out.Result = routing.Result{
		Path:     spliceTail(first.Path, rest.Path),
		Reached:  true,
		Fallback: first.Fallback || rest.Fallback,
	}
	return out
}

// RouteWithObstacles routes like the Section-3 protocol but with an
// arbitrary obstacle representation: any polygon set whose vertices are node
// positions (e.g. full boundaries, locally convex hulls, convex hulls). The
// abstraction-ablation experiment uses it to trade storage against stretch.
// The domain should be built once via vis.NewDomain and reused across
// queries.
func (nw *Network) RouteWithObstacles(s, t sim.NodeID, domain *vis.Domain) Outcome {
	out := Outcome{}
	c, _, _ := nw.caseOf(s, t)
	out.Case = c
	if s == t {
		out.Result = routing.Result{Path: []sim.NodeID{s}, Reached: true}
		return out
	}
	out.LongRange = 2
	first := nw.Router.Chew(s, t)
	if first.Reached {
		out.Result = first
		return out
	}
	if !first.HoleHit || len(first.Path) == 0 {
		return nw.globalFallback(s, t, out)
	}
	h0 := first.HitNode
	out.LongRange++
	pts, _, ok := domain.ShortestPath(nw.G.Point(h0), nw.G.Point(t))
	if !ok {
		return nw.globalFallback(s, t, out)
	}
	wps, ok := nw.pointsToNodes(h0, t, pts)
	if !ok {
		return nw.globalFallback(s, t, out)
	}
	rest := nw.Router.ChewVia(wps)
	if !rest.Reached {
		return nw.globalFallback(s, t, out)
	}
	out.Waypoints = wps
	out.Result = routing.Result{
		Path:     spliceTail(first.Path, rest.Path),
		Reached:  true,
		Fallback: first.Fallback || rest.Fallback,
	}
	return out
}

// RouteWithOverlay routes like RouteWithObstacles but plans over an overlay
// Delaunay graph instead of a full visibility graph — the space-reduced
// variant of Section 3 ("a Delaunay Graph of all nodes lying on different
// holes"), with O(h) instead of Θ(h²) edges and a 1.998× longer plan in the
// worst case.
func (nw *Network) RouteWithOverlay(s, t sim.NodeID, overlay *vis.Overlay) Outcome {
	out := Outcome{}
	c, _, _ := nw.caseOf(s, t)
	out.Case = c
	if s == t {
		out.Result = routing.Result{Path: []sim.NodeID{s}, Reached: true}
		return out
	}
	out.LongRange = 2
	first := nw.Router.Chew(s, t)
	if first.Reached {
		out.Result = first
		return out
	}
	if !first.HoleHit || len(first.Path) == 0 {
		return nw.globalFallback(s, t, out)
	}
	h0 := first.HitNode
	out.LongRange++
	pts, _, ok := overlay.ShortestPath(nw.G.Point(h0), nw.G.Point(t))
	if !ok {
		return nw.globalFallback(s, t, out)
	}
	wps, ok := nw.pointsToNodes(h0, t, pts)
	if !ok {
		return nw.globalFallback(s, t, out)
	}
	rest := nw.Router.ChewVia(wps)
	if !rest.Reached {
		return nw.globalFallback(s, t, out)
	}
	out.Waypoints = wps
	out.Result = routing.Result{
		Path:     spliceTail(first.Path, rest.Path),
		Reached:  true,
		Fallback: first.Fallback || rest.Fallback,
	}
	return out
}

// routeVisibility is the Section-3 protocol: Chew until hole hit, then a
// shortest path in the Visibility Graph of all hole boundary nodes.
func (nw *Network) routeVisibility(s, t sim.NodeID, out Outcome) Outcome {
	first := nw.Router.Chew(s, t)
	if first.Reached {
		out.Result = first
		return out
	}
	if !first.HoleHit || len(first.Path) == 0 {
		return nw.globalFallback(s, t, out)
	}
	h0 := first.HitNode
	out.LongRange++
	pts, _, ok := nw.VisDomain.ShortestPath(nw.G.Point(h0), nw.G.Point(t))
	if !ok {
		return nw.globalFallback(s, t, out)
	}
	wps, ok := nw.pointsToNodes(h0, t, pts)
	if !ok {
		return nw.globalFallback(s, t, out)
	}
	rest := nw.Router.ChewVia(wps)
	if !rest.Reached {
		return nw.globalFallback(s, t, out)
	}
	out.Waypoints = wps
	out.Result = routing.Result{
		Path:     spliceTail(first.Path, rest.Path),
		Reached:  true,
		Fallback: first.Fallback || rest.Fallback,
	}
	return out
}

// exitPlan returns the waypoints leading from v out of its group's merged
// hull (ending at a chosen hull corner node), or ([v], v) when v is outside
// all hulls. Among the nearest hull corners, the one minimizing geodesic
// length plus Euclidean remainder toward the destination is chosen — the
// hull-endpoint selection of the paper's cases 2–4.
func (nw *Network) exitPlan(gi int, v sim.NodeID, toward geom.Point) ([]sim.NodeID, sim.NodeID, bool) {
	if gi < 0 {
		return []sim.NodeID{v}, v, true
	}
	pv := nw.G.Point(v)
	corners := nw.Groups[gi].Hull
	// Rank corners by straight-line distance and try the closest few.
	order := make([]int, len(corners))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort by distance
		for j := i; j > 0 && corners[order[j]].Dist2(pv) < corners[order[j-1]].Dist2(pv); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	tries := len(order)
	if tries > 6 {
		tries = 6
	}
	bestLen := -1.0
	var best []sim.NodeID
	var bestExit sim.NodeID = -1
	for _, ci := range order[:tries] {
		x, ok := nw.waypointNode(corners[ci])
		if !ok {
			continue
		}
		wps, ok := nw.groupPathNodesTo(gi, v, x)
		if !ok {
			continue
		}
		l := 0.0
		for i := 1; i < len(wps); i++ {
			l += nw.G.Point(wps[i-1]).Dist(nw.G.Point(wps[i]))
		}
		l += nw.G.Point(x).Dist(toward)
		if bestLen < 0 || l < bestLen {
			bestLen, best, bestExit = l, wps, x
		}
	}
	if bestLen < 0 {
		return nil, -1, false
	}
	return best, bestExit, true
}

// groupPathNodes computes the extreme-point waypoint path between two nodes
// inside the same group's merged hull (Section 4.4): the geodesic around the
// member hole boundaries, whose interior vertices are boundary nodes.
func (nw *Network) groupPathNodes(gi int, s, t sim.NodeID) ([]sim.NodeID, bool) {
	if gi < 0 {
		return nil, false
	}
	return nw.groupPathNodesTo(gi, s, t)
}

func (nw *Network) groupPathNodesTo(gi int, from, to sim.NodeID) ([]sim.NodeID, bool) {
	pts, _, ok := nw.groupDomain(gi).ShortestPath(nw.G.Point(from), nw.G.Point(to))
	if !ok {
		return nil, false
	}
	return nw.pointsToNodes(from, to, pts)
}

// overlayWaypoints maps an abstraction waypoint path between two nodes to
// the hull-node waypoint sequence (Overlay Delaunay Graph shortest paths
// under the hull backend, box-corner overlay paths under bbox).
func (nw *Network) overlayWaypoints(a, b sim.NodeID) ([]sim.NodeID, bool) {
	pts, _, ok := nw.Abs.Waypoints(nw.G.Point(a), nw.G.Point(b))
	if !ok {
		return nil, false
	}
	return nw.pointsToNodes(a, b, pts)
}

// waypointNode resolves a plan waypoint position to the node that realizes
// it: the node at that exact position when one exists (hull corners are node
// positions), otherwise the abstraction's stand-in node for a synthetic
// corner (the nearest boundary node of a bounding-box corner).
func (nw *Network) waypointNode(p geom.Point) (sim.NodeID, bool) {
	if v, ok := nw.nodeAtPt[p]; ok {
		return v, true
	}
	return nw.Abs.CornerNode(p)
}

// pointsToNodes converts a geometric waypoint path (endpoints are the given
// nodes, interior points are node positions or region corners) into node
// IDs. Degenerate paths with fewer than two points (coincident endpoints,
// grazing geometry) carry no interior waypoints and yield the trivial
// from→to plan.
func (nw *Network) pointsToNodes(from, to sim.NodeID, pts []geom.Point) ([]sim.NodeID, bool) {
	wps := []sim.NodeID{from}
	if len(pts) >= 2 {
		for _, p := range pts[1 : len(pts)-1] {
			v, ok := nw.waypointNode(p)
			if !ok {
				return nil, false
			}
			if v != wps[len(wps)-1] {
				wps = append(wps, v)
			}
		}
	}
	if to != wps[len(wps)-1] {
		wps = append(wps, to)
	}
	return wps, true
}

// lossDetourSlack is the tolerance of loss-aware planning: a plan whose
// expected transmission cost (Σ edge length × ETX) exceeds its geometric
// length by more than this factor is re-planned over the ETX-weighted LDel².
// The slack keeps barely-lossy plans stable instead of flapping between
// near-equal alternatives.
const lossDetourSlack = 1.05

// etxWeight builds the edge-weight function of loss-aware planning: the
// ETX multiplier of each directed link, with edges into transport-declared
// dead nodes removed (the p̂ → 1 limit; t itself stays reachable, matching
// ShortestPathAvoiding's endpoint exemption).
func (nw *Network) etxWeight(t sim.NodeID, avoid map[sim.NodeID]bool) delaunay.EdgeWeight {
	return func(u, v udg.NodeID) float64 {
		if avoid[v] && v != t {
			return math.Inf(1)
		}
		return nw.Link.ETX(u, v)
	}
}

// applyLossDetour re-plans out.Path over the ETX-weighted LDel² when the
// current plan's expected transmission cost is meaningfully worse than its
// length, keeping the plan otherwise. It reports whether the plan changed.
// With an empty estimator every ETX is 1, both costs coincide and the plan
// is always kept — loss-aware mode is inert until loss has been observed.
func (nw *Network) applyLossDetour(out *Outcome, t sim.NodeID, avoid map[sim.NodeID]bool) bool {
	if nw.Link == nil || !out.Reached || len(out.Path) < 2 {
		return false
	}
	geo, exp := 0.0, 0.0
	for i := 1; i < len(out.Path); i++ {
		v := out.Path[i]
		l := nw.G.Point(out.Path[i-1]).Dist(nw.G.Point(v))
		geo += l
		exp += l * nw.Link.ETX(out.Path[i-1], v)
	}
	if exp <= geo*lossDetourSlack {
		return false
	}
	path, cost, ok := nw.LDel.ShortestPathWeighted(out.Path[0], t, nw.etxWeight(t, avoid))
	if !ok || cost >= exp {
		return false
	}
	out.Path = path
	out.Waypoints = nil
	out.LossDetour = true
	if nw.tracer != nil {
		nw.tracer.Emit(trace.Event{Kind: trace.KindDetour, From: int(path[0]), To: int(t), Plan: planLDelETX})
	}
	return true
}

// globalFallback delivers via the LDel² shortest path, flagged; it keeps
// degenerate geometry from failing queries while remaining visible to the
// experiments.
func (nw *Network) globalFallback(s, t sim.NodeID, out Outcome) Outcome {
	path, _, ok := nw.LDel.ShortestPath(s, t)
	out.PlanFallback = true
	if !ok {
		out.Result = routing.Result{Path: []sim.NodeID{s}, Stuck: true}
		return out
	}
	out.Result = routing.Result{Path: path, Reached: true, Fallback: true}
	return out
}

// spliceTail concatenates two hop paths into a fresh slice, merging the
// junction node when the tail starts where the head ends. The junction is
// dropped by value, not position: a tail that does not actually begin at the
// head's last node keeps its first element instead of silently losing a hop
// (the old positional splice corrupted such paths).
func spliceTail(head, tail []sim.NodeID) []sim.NodeID {
	out := append(make([]sim.NodeID, 0, len(head)+len(tail)), head...)
	if len(tail) > 0 && len(out) > 0 && tail[0] == out[len(out)-1] {
		tail = tail[1:]
	}
	return append(out, tail...)
}

func appendWaypoints(dst, src []sim.NodeID) []sim.NodeID {
	for _, v := range src {
		if len(dst) == 0 || dst[len(dst)-1] != v {
			dst = append(dst, v)
		}
	}
	return dst
}

// reverseIDs reverses in place and returns the same slice. Every caller owns
// its argument exclusively (plan sources return private copies), so no fresh
// allocation is needed.
func reverseIDs(ids []sim.NodeID) []sim.NodeID {
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}
