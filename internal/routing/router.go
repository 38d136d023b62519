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
	// Fallback is set when Chew's walk declined: the answer is then the
	// graph shortest path, or, when s and t lie in different components,
	// Stuck at s. ChewVia also sets it for a leg that took the graph
	// shortest path because Chew did not reach its waypoint.
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
// Face classification follows Definition 2.5: the router walks the rows of
// the graph's delaunay.HullMap, the map hole detection classifies, where the
// convex hull CH(V) of the nodes with edges is overlaid on the graph, so the
// region between the outer boundary and the hull decomposes into bounded
// faces. A segment between two nodes with edges
// always stays inside CH(V) and therefore never crosses the outer face of
// the augmented embedding; outer holes (boundary notches behind a hull edge
// longer than the radio range) appear as ordinary bounded non-triangle
// faces. Hull edges are classification artifacts only — path construction
// and all forwarding decisions use the real communication graph.
type Router struct {
	g *delaunay.PlanarGraph // real communication graph
	// faces is the face table of g plus the CH(V) edges: row i is face i's
	// boundary cycle, as nodes of g. adj (per slot, aligned with faces.Dat)
	// and anchor (per node) are its adjacency, which Chew's walk steps
	// through. An adj entry names the slot of the reversed edge (its twin),
	// the twin's position in its row when that row is a walkable triangle,
	// and whether the slot's edge is a CH(V) edge that g lacks (walk.go has
	// the layout). anchor holds one slot leaving each node, in a three-slot
	// row when the node has one; −1 for a node without edges.
	faces  mem.CSR[int32]
	adj    []int32
	anchor []int32
	outer  int
	// islands maps each node with edges outside the outer row's component
	// to its component; nil when the augmented graph is connected.
	islands map[int32]int32
	// scratch pools the per-query working memory (walks run concurrently
	// under the engine's batch workers).
	scratch *sync.Pool
	// maxHops bounds every walk; defaults to 4n.
	maxHops int
}

// New builds a router over the given planar graph.
func New(g *delaunay.PlanarGraph) *Router { return NewFromMap(g.HullMap()) }

// NewFromMap builds a router over m's graph that walks m's rows. It takes
// m's tables: the twin array becomes the router's adjacency in place, so
// m.Twin is nil afterwards, and the face table and anchors are shared.
func NewFromMap(m *delaunay.HullMap) *Router {
	g := m.Graph()
	r := &Router{
		g:       g,
		faces:   m.Faces,
		anchor:  m.Anchor,
		outer:   m.Outer,
		maxHops: 4*g.N() + 16,
	}
	r.adj = r.encodeAdjacency(m.Twin)
	m.Twin = nil
	for _, p := range m.Hull {
		r.adj[p] |= hullBit
	}
	r.islands = r.newIslands()
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
