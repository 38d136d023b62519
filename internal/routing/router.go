// Package routing implements the online routing strategies of the paper and
// its baselines over a 2-localized Delaunay graph:
//
//   - Greedy forwarding (always move to the neighbour closest to the target),
//     which gets stuck at radio holes — the failure that motivates the paper;
//   - Compass routing (minimize angle to the target direction), which can
//     loop near holes;
//   - Greedy + face routing recovery (GFG/GPSR-style, the classic guaranteed-
//     delivery baseline on planar graphs, in the family of GOAFR);
//   - Chew's algorithm (Theorem 2.10/2.11): walk along the triangles of the
//     triangulation intersected by the source–target segment, which is
//     5.9-competitive on Delaunay-type graphs and detects radio holes when
//     the segment crosses a non-triangle face;
//   - the waypoint router of Sections 3/4.3: Chew's algorithm applied leg by
//     leg along a hull-node waypoint sequence obtained from a visibility or
//     overlay Delaunay shortest path.
package routing

import (
	"math"
	"sync"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
	"hybridroute/internal/udg"
)

// NodeID aliases the graph node identifier.
type NodeID = udg.NodeID

// Result is the outcome of a routing attempt.
type Result struct {
	Path    []NodeID // visited nodes from source to last reached
	Reached bool     // whether the target was reached
	Stuck   bool     // greedy/compass dead end or loop detected
	// HoleHit reports that Chew's walk hit a non-triangle face (a radio
	// hole or the outer face) before reaching the target; HitNode is the
	// boundary node where the walk stopped and HoleFace the face index.
	HoleHit  bool
	HitNode  NodeID
	HoleFace int
	// Fallback is set when the corridor walk had to fall back to a graph
	// shortest path due to a degenerate geometric configuration.
	Fallback bool
}

// Length returns the Euclidean length of the traversed path.
func (r Result) Length(g *delaunay.PlanarGraph) float64 {
	total := 0.0
	for i := 1; i < len(r.Path); i++ {
		total += g.Point(r.Path[i-1]).Dist(g.Point(r.Path[i]))
	}
	return total
}

// Hops returns the number of edges traversed.
func (r Result) Hops() int {
	if len(r.Path) == 0 {
		return 0
	}
	return len(r.Path) - 1
}

// Router answers online routing queries over a fixed planar graph. It
// precomputes the face structure (each node of the real network knows its
// incident faces locally; the router centralizes that per-node knowledge for
// the simulation).
//
// Face classification follows Definition 2.5: the convex hull CH(V) of the
// node set is overlaid on the graph, so the region between the outer
// boundary and the hull decomposes into bounded faces. A segment between two
// nodes always stays inside CH(V) and therefore never crosses the outer face
// of the augmented embedding; outer holes (boundary notches behind a hull
// edge longer than the radio range) appear as ordinary bounded non-triangle
// faces. Hull edges are classification artifacts only — path construction
// and all forwarding decisions use the real communication graph.
type Router struct {
	g *delaunay.PlanarGraph // real communication graph
	// faces is the face table of g plus the CH(V) edges: row i is face i's
	// boundary cycle, as nodes of g. across (per slot, aligned with
	// faces.Dat) and anchor (per node) are its adjacency, which the corridor
	// walk steps through; the sign bit of an across entry marks a CH(V) edge
	// that g lacks (hullBit). tri marks the rows the walk crosses as
	// triangles.
	faces  mem.CSR[int32]
	across []int32
	anchor []int32
	tri    []uint64
	outer  int
	// inner ties islands and nodes without edges to the faces holding them;
	// empty when the augmented graph is connected.
	inner *innerBounds
	// scratch pools the per-query working memory (corridors run
	// concurrently under the engine's batch workers).
	scratch *sync.Pool
	// maxHops bounds every walk; defaults to 4n.
	maxHops int
}

// New builds a router over the given planar graph.
func New(g *delaunay.PlanarGraph) *Router {
	r := &Router{
		g:       g,
		maxHops: 4*g.N() + 16,
	}
	gbar := g.Clone()        // g plus the CH(V) edges, for face enumeration only
	var hullEdges [][2]int32 // the CH(V) edges g lacks
	if g.N() >= 3 {
		hull := geom.ConvexHull(g.Points())
		// Index only the hull points: probing every node against a
		// hull-sized map avoids an n-entry map at n=10⁶. The ascending scan
		// keeps the historical coincident-point resolution (highest node ID
		// wins, as later map inserts used to overwrite earlier ones).
		idx := make(map[geom.Point]NodeID, len(hull))
		for _, p := range hull {
			idx[p] = -1
		}
		for v := 0; v < g.N(); v++ {
			p := g.Point(NodeID(v))
			if _, ok := idx[p]; ok {
				idx[p] = NodeID(v)
			}
		}
		for i := range hull {
			a, okA := idx[hull[i]]
			b, okB := idx[hull[(i+1)%len(hull)]]
			if okA && okB && a >= 0 && b >= 0 && a != b && !g.HasEdge(a, b) {
				gbar.AddEdge(a, b)
				hullEdges = append(hullEdges, [2]int32{int32(a), int32(b)})
			}
		}
	}
	fa := gbar.FacesWithAdjacency()
	r.faces, r.across, r.anchor = fa.Faces, fa.Across, fa.Anchor
	for _, e := range hullEdges {
		r.markHull(e[0], e[1])
		r.markHull(e[1], e[0])
	}
	r.outer = gbar.OuterFaceIndex(&r.faces)
	r.inner = r.newInnerBounds()
	r.tri = r.triangleRows()
	r.scratch = newScratchPool(g.N())
	return r
}

// Graph returns the underlying planar graph.
func (r *Router) Graph() *delaunay.PlanarGraph { return r.g }

// OuterFace returns the index of the unbounded face.
func (r *Router) OuterFace() int { return r.outer }

// IsTriangleFace reports whether face i is a triangle (not a hole, not the
// outer face). A three-slot row needs no count: with no self-loops its three
// nodes are distinct.
func (r *Router) IsTriangleFace(i int) bool {
	if i == r.outer {
		return false
	}
	row := r.faces.Row(i)
	return len(row) == 3 || delaunay.DistinctNodes(row) == 3
}

// Greedy routes by always forwarding to the neighbour strictly closest to
// the target; it declares Stuck at a local minimum (the radio hole failure
// mode of Section 1).
func (r *Router) Greedy(s, t NodeID) Result {
	res := Result{Path: []NodeID{s}}
	cur := s
	pt := r.g.Point(t)
	for hops := 0; hops < r.maxHops; hops++ {
		if cur == t {
			res.Reached = true
			return res
		}
		best := cur
		bestD := r.g.Point(cur).Dist(pt)
		for _, w := range r.g.Neighbors(cur) {
			if d := r.g.Point(w).Dist(pt); d < bestD {
				best, bestD = w, d
			}
		}
		if best == cur {
			res.Stuck = true
			return res
		}
		cur = best
		res.Path = append(res.Path, cur)
	}
	res.Stuck = true
	return res
}

// Compass routes by forwarding to the neighbour whose direction minimizes
// the angle to the target direction. Unlike greedy it can loop; loops are
// detected via a visited-edge set and reported as Stuck.
func (r *Router) Compass(s, t NodeID) Result {
	res := Result{Path: []NodeID{s}}
	cur := s
	pt := r.g.Point(t)
	type dedge struct{ a, b NodeID }
	used := map[dedge]bool{}
	for hops := 0; hops < r.maxHops; hops++ {
		if cur == t {
			res.Reached = true
			return res
		}
		pc := r.g.Point(cur)
		dir := pt.Sub(pc)
		best := NodeID(-1)
		bestAng := math.Inf(1)
		for _, w := range r.g.Neighbors(cur) {
			d := r.g.Point(w).Sub(pc)
			ang := math.Abs(angleBetween(dir, d))
			if ang < bestAng {
				best, bestAng = w, ang
			}
		}
		if best < 0 {
			res.Stuck = true
			return res
		}
		e := dedge{cur, best}
		if used[e] {
			res.Stuck = true // deterministic loop
			return res
		}
		used[e] = true
		cur = best
		res.Path = append(res.Path, cur)
	}
	res.Stuck = true
	return res
}

func angleBetween(a, b geom.Point) float64 {
	d := b.Angle() - a.Angle()
	for d <= -math.Pi {
		d += 2 * math.Pi
	}
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	return d
}
