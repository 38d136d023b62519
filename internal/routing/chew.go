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
// walk cannot decide, Chew takes the corridor (chewFromCorridor).
func (r *Router) Chew(s, t NodeID) Result {
	if s == t {
		return Result{Path: []NodeID{s}, Reached: true}
	}
	if r.g.HasEdge(s, t) {
		return Result{Path: []NodeID{s, t}, Reached: true}
	}
	L := geom.Seg(r.g.Point(s), r.g.Point(t))
	sc := r.getScratch()
	defer r.putScratch(sc)
	if res, ok := r.chewFromWalk(L, s, t, sc); ok {
		return res
	}
	return r.chewFromCorridor(L, s, t, sc)
}

// chewFromWalk answers from the chains of a walk from s that stops at t or
// at the first row that is not a triangle. Consecutive chain nodes share a
// triangle the walk crossed, so a chain is a path of g up to its first step
// over a CH(V) edge. The walk answers when it reached t, or when the row it
// stopped at is the blocking face: not a triangle face, and entered by L
// through its interior by the corridor's exact entry test. The chains are
// then trimmed there as holeHitResult trims them. ok is false in every other
// case: s has no edges or lies on an island, the walk ended elsewhere, the
// row it stopped at is not the blocking face (the outer row, a row L only
// touches, a triangle holding an island), or no chain is a path.
func (r *Router) chewFromWalk(L geom.Segment, s, t NodeID, sc *corridorScratch) (res Result, ok bool) {
	f := r.anchor[s]
	if f < 0 || r.inner.holderOf(int32(s)) >= 0 || L.A == L.B {
		return Result{}, false
	}
	w := r.newWalk(L, s, t, sc)
	stop := w.leave(f, r.locate(f, int32(s), -1))
	for stop < 0 && len(sc.stack) > 0 {
		stop = w.resume()
	}
	if w.reached {
		path := r.shorter(sc.left, sc.right, len(sc.left) <= w.okL, len(sc.right) <= w.okR)
		return Result{Path: path, Reached: true}, path != nil
	}
	if stop < 0 || int(stop) == r.outer || r.IsTriangleFace(int(stop)) {
		return Result{}, false
	}
	if w.testRow(stop); len(sc.entries) == 0 {
		return Result{}, false // L only touches the row
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

// chewFromCorridor answers from the corridor: the faces whose interior st
// passes through, with both chains rebuilt from them. It falls back to a
// graph shortest path when neither chain is a path.
func (r *Router) chewFromCorridor(L geom.Segment, s, t NodeID, sc *corridorScratch) Result {
	corridor := r.corridor(L, s, t, sc)
	if len(corridor) == 0 {
		// Degenerate: no face registered as crossed (collinear grazing).
		return r.fallback(s, t)
	}

	// Split the corridor at the first non-triangle face.
	prefix := corridor
	holeFace := -1
	for i, f := range corridor {
		if !r.IsTriangleFace(f) {
			prefix = corridor[:i]
			holeFace = f
			break
		}
	}

	left, right := r.corridorChains(L, s, t, prefix, holeFace, sc)

	if holeFace >= 0 {
		// Stop at the boundary of the blocking face: the last chain vertex
		// lying on that face.
		return r.holeHitResult(s, left, right, holeFace, sc)
	}
	if path := r.shorterValid(left, right); path != nil {
		return Result{Path: path, Reached: true}
	}
	return r.fallback(s, t)
}

// ChewVia routes along a waypoint sequence (s = w0, w1, …, wk = t), applying
// Chew's algorithm between consecutive waypoints (Sections 3 and 4.3). Legs
// are expected to be visible pairs; a leg that hits a hole anyway falls back
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

// corridorChains builds the left and right boundary chains of the triangle
// corridor. Each chain starts at s; when the corridor is complete (no
// blocking face) it ends at t. A vertex's side of L is fixed, so it joins its
// chain (both chains when it lies on L) the first time any corridor face
// shows it, and one mark set over node IDs dedupes both chains. Both chains
// live in sc.
func (r *Router) corridorChains(L geom.Segment, s, t NodeID, prefix []int, holeFace int, sc *corridorScratch) (left, right []NodeID) {
	dir := L.B.Sub(L.A)
	len2 := dir.Dot(dir)

	left = append(sc.left[:0], s)
	right = append(sc.right[:0], s)
	seen := sc.nodeSeen
	seen.Reset()
	for _, fi := range prefix {
		// Order the face's vertices by their projection along the segment so
		// chains grow front to back: a stable insertion sort on keys computed
		// once per vertex.
		verts, keys := sc.verts[:0], sc.keys[:0]
		for _, v32 := range r.faces.Row(fi) {
			v := NodeID(v32)
			verts, keys = insertByKey(verts, keys, v, r.g.Point(v).Sub(L.A).Dot(dir)/len2)
		}
		sc.verts, sc.keys = verts, keys
		for _, v := range verts {
			if v == s || v == t || seen.Has(int(v)) {
				continue
			}
			seen.Set(int(v))
			switch geom.Orient(L.A, L.B, r.g.Point(v)) {
			case geom.CounterClockwise:
				left = append(left, v)
			case geom.Clockwise:
				right = append(right, v)
			default:
				// A vertex exactly on the segment belongs to both chains.
				left = append(left, v)
				right = append(right, v)
			}
		}
	}
	if holeFace < 0 {
		left = append(left, t)
		right = append(right, t)
	}
	sc.left, sc.right = left, right
	return left, right
}

// insertByKey adds v with its key to verts and keys, parallel slices sorted
// by key, after every element whose key is not greater: one step of a stable
// insertion sort, so equal keys keep their insertion order.
func insertByKey(verts []NodeID, keys []float64, v NodeID, key float64) ([]NodeID, []float64) {
	i := len(verts)
	verts, keys = append(verts, v), append(keys, key)
	for ; i > 0 && key < keys[i-1]; i-- {
		verts[i], keys[i] = verts[i-1], keys[i-1]
	}
	verts[i], keys[i] = v, key
	return verts, keys
}

// holeHitResult routes to a boundary node of the blocking face along
// whichever chain reaches one, preferring the shorter. It reuses the chain
// mark set for the face's vertices.
func (r *Router) holeHitResult(s NodeID, left, right []NodeID, holeFace int, sc *corridorScratch) Result {
	onFace := r.markFace(holeFace, sc)
	if pick := r.shorterValid(trimAt(left, onFace), trimAt(right, onFace)); pick != nil {
		return Result{Path: pick, HoleHit: true, HitNode: pick[len(pick)-1], HoleFace: holeFace}
	}
	// s itself may already be on the face.
	if onFace.Has(int(s)) {
		return Result{Path: []NodeID{s}, HoleHit: true, HitNode: s, HoleFace: holeFace}
	}
	// Degenerate configuration: walk via graph shortest path to the
	// nearest face vertex.
	best := Result{}
	bestLen := -1.0
	for _, v32 := range r.faces.Row(holeFace) {
		v := NodeID(v32)
		if path, l, ok := r.g.ShortestPath(s, v); ok && (bestLen < 0 || l < bestLen) {
			best = Result{Path: path, HoleHit: true, HitNode: v, HoleFace: holeFace, Fallback: true}
			bestLen = l
		}
	}
	return best
}

// markFace marks the vertices of face f in the chain mark set and returns
// it.
func (r *Router) markFace(f int, sc *corridorScratch) *mem.Marks {
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

// shorterValid returns the shorter of the two chains that are graph paths
// (left on a tie), or nil when neither is. It returns a copy, since the
// chains live in the pooled scratch.
func (r *Router) shorterValid(left, right []NodeID) []NodeID {
	return r.shorter(left, right, r.validChain(left), r.validChain(right))
}

// shorter returns a copy of the shorter of the chains that are paths (left
// on a tie), or nil when neither is; lv and rv say which are.
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

// validChain reports whether consecutive chain nodes are graph edges.
func (r *Router) validChain(chain []NodeID) bool {
	if len(chain) == 0 {
		return false
	}
	for i := 1; i < len(chain); i++ {
		if !r.g.HasEdge(chain[i-1], chain[i]) {
			return false
		}
	}
	return true
}

func chainLength(r *Router, chain []NodeID) float64 {
	total := 0.0
	for i := 1; i < len(chain); i++ {
		total += r.g.Point(chain[i-1]).Dist(r.g.Point(chain[i]))
	}
	return total
}

// fallback routes via the graph shortest path, flagged as a fallback; it is
// only used for degenerate geometry the corridor walk cannot classify.
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
