package routing

import (
	"slices"
	"sort"

	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
)

// Chew routes from s to t along the faces of the triangulation intersected
// by the segment st, the strategy of Theorem 2.10/2.11: on Delaunay-type
// triangulations the walk is 5.9-competitive. When the segment crosses a
// non-triangle face (a radio hole, Definition 2.4/2.5, or the outer face),
// the walk stops at a boundary node of that face and reports HoleHit — this
// is exactly how the routing protocol of Section 3/4.3 discovers that the
// target is not visible and switches to hull-node waypoint routing.
//
// The answer comes from the chains of one walk (chewFromWalk). Where that
// walk declines, s and t in different components of g get no path, Stuck at
// s; otherwise Chew takes the graph shortest path. Both are flagged Fallback.
func (r *Router) Chew(s, t NodeID) Result {
	if s == t {
		return Result{Path: []NodeID{s}, Reached: true}
	}
	if r.g.HasEdge(s, t) {
		return Result{Path: []NodeID{s, t}, Reached: true}
	}
	sc := r.getScratch()
	defer r.putScratch(sc)
	if res, ok := r.chewFromWalk(s, t, sc); ok {
		return res
	}
	if !r.connected(s, t) {
		return Result{Path: []NodeID{s}, Stuck: true, Fallback: true}
	}
	return r.fallback(s, t)
}

// chewFromWalk answers from the chains of a walk from s that stops at t or at
// the first row that is not a triangle. Consecutive chain nodes share a
// triangle the walk crossed, so a chain is a path of g up to its first step
// over a CH(V) edge. The walk answers when it reached t, or when the row it
// stopped at is the blocking face: not a triangle face, and entered by L
// through its interior by the exact entry test. The chains are then trimmed at
// their first node on that face. ok is false in every other case: s and t lie
// in different components (no walk starts, since none could reach t, and a
// hole it met would only send the query after a t no path reaches), the walk
// ended elsewhere, the row it stopped at is not the blocking face (the outer
// row, a row L only touches, an island's three-node outline), or no chain is
// a path.
func (r *Router) chewFromWalk(s, t NodeID, sc *walkScratch) (res Result, ok bool) {
	L := geom.Seg(r.g.Point(s), r.g.Point(t))
	if L.A == L.B || !r.connected(s, t) {
		return Result{}, false
	}
	w := r.newWalk(L, s, t, sc)
	p := r.anchor[s]
	stop := w.run(p, r.pos(p))
	if w.reached {
		path := r.shorter(sc.left, sc.right, len(sc.left) <= w.okL, len(sc.right) <= w.okR)
		return Result{Path: path, Reached: true}, path != nil
	}
	if stop < 0 || int(stop) == r.outer || r.IsTriangleFace(int(stop)) || !w.enters(stop) {
		return Result{}, false
	}
	// Both chains end on the face: at the ends of the edge L crossed into
	// it, or at the vertex L left into it.
	onFace := r.markFace(int(stop), sc)
	left, right := trimAt(sc.left, onFace), trimAt(sc.right, onFace)
	path := r.shorter(left, right, len(left) <= w.okL, len(right) <= w.okR)
	if path == nil {
		return Result{}, false
	}
	return Result{Path: path, HoleHit: true, HitNode: path[len(path)-1], HoleFace: int(stop)}, true
}

// ChewVia routes along a waypoint sequence (s = w0, w1, …, wk = t), applying
// Chew's algorithm between consecutive waypoints (Sections 3 and 4.3). Legs
// are expected to be visible pairs; a leg that does not reach its waypoint
// anyway (it hit a hole, or its walk declined and no path exists) falls back
// to the graph shortest path for that leg, flagged in the result.
func (r *Router) ChewVia(waypoints []NodeID) Result {
	if len(waypoints) == 0 {
		return Result{}
	}
	out := Result{Path: []NodeID{waypoints[0]}, Reached: true}
	for i := 1; i < len(waypoints); i++ {
		leg := r.Chew(waypoints[i-1], waypoints[i])
		if !leg.Reached {
			leg = r.fallback(waypoints[i-1], waypoints[i])
			if !leg.Reached {
				out.Reached = false
				return out
			}
			out.Fallback = true
		}
		if leg.Fallback {
			out.Fallback = true
		}
		out.Path = append(out.Path, leg.Path[1:]...)
	}
	return out
}

// markFace marks the vertices of face f in the scratch mark set and returns
// it.
func (r *Router) markFace(f int, sc *walkScratch) *mem.Marks {
	onFace := sc.nodeSeen
	onFace.Reset()
	for _, v := range r.faces.Row(f) {
		onFace.Set(int(v))
	}
	return onFace
}

// trimAt truncates chain after its first vertex marked in onFace, or returns
// nil when it has none.
func trimAt(chain []NodeID, onFace *mem.Marks) []NodeID {
	for i, v := range chain {
		if onFace.Has(int(v)) {
			return chain[:i+1]
		}
	}
	return nil
}

// shorter returns a copy of the shorter of the chains that are paths (left
// on a tie), or nil when neither is; lv and rv say which are. It copies,
// since the chains live in the pooled scratch.
func (r *Router) shorter(left, right []NodeID, lv, rv bool) []NodeID {
	var pick []NodeID
	switch {
	case lv && rv && chainLength(r, right) < chainLength(r, left):
		pick = right
	case lv:
		pick = left
	case rv:
		pick = right
	default:
		return nil
	}
	return slices.Clone(pick)
}

func chainLength(r *Router, chain []NodeID) float64 {
	total := 0.0
	for i := 1; i < len(chain); i++ {
		total += r.g.Point(chain[i-1]).Dist(r.g.Point(chain[i]))
	}
	return total
}

// fallback routes via the graph shortest path, flagged as a fallback; Chew
// takes it only where its walk declines and s and t are connected, and
// ChewVia for a leg that did not reach its waypoint.
func (r *Router) fallback(s, t NodeID) Result {
	path, _, ok := r.g.ShortestPath(s, t)
	if !ok {
		return Result{Path: []NodeID{s}, Stuck: true, Fallback: true}
	}
	return Result{Path: path, Reached: true, Fallback: true}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func sortFloats(xs []float64) { sort.Float64s(xs) }
