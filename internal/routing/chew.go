package routing

import (
	"slices"
	"sort"

	"hybridroute/internal/geom"
)

// Chew routes from s to t along the faces of the triangulation intersected
// by the segment st, the strategy of Theorem 2.10/2.11: on Delaunay-type
// triangulations the walk is 5.9-competitive. When the segment crosses a
// non-triangle face (a radio hole, Definition 2.4/2.5, or the outer face),
// the walk stops at a boundary node of that face and reports HoleHit — this
// is exactly how the routing protocol of Section 3/4.3 discovers that the
// target is not visible and switches to hull-node waypoint routing.
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
	onFace := sc.nodeSeen
	onFace.Reset()
	for _, v := range r.faces.Row(holeFace) {
		onFace.Set(int(v))
	}
	trim := func(chain []NodeID) []NodeID {
		// Truncate the chain at its first vertex on the blocking face.
		for i, v := range chain {
			if onFace.Has(int(v)) {
				return chain[:i+1]
			}
		}
		return nil
	}
	if pick := r.shorterValid(trim(left), trim(right)); pick != nil {
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

// shorterValid returns the shorter of the two chains that are graph paths
// (left on a tie), or nil when neither is. It returns a copy, since the
// chains live in the pooled scratch.
func (r *Router) shorterValid(left, right []NodeID) []NodeID {
	lv, rv := r.validChain(left), r.validChain(right)
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
