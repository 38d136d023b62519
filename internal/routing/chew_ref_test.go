package routing

import (
	"sort"

	"hybridroute/internal/geom"
)

// The reference corridor walk, the oracle the differential tests hold
// Chew's walk to. It computes the same answers the plain way: the
// corridor from a scan of every non-outer face, with no walk involved,
// its entries in a map sorted through a closure, chain vertices deduped by
// scanning the chain, each face's vertices ordered by sort.SliceStable with
// keys recomputed per comparison, and the full segment predicates on every
// face edge.

// refChew is Chew over the reference corridor walk.
func (r *Router) refChew(s, t NodeID) Result {
	if s == t {
		return Result{Path: []NodeID{s}, Reached: true}
	}
	if r.g.HasEdge(s, t) {
		return Result{Path: []NodeID{s, t}, Reached: true}
	}
	L := geom.Seg(r.g.Point(s), r.g.Point(t))

	corridor := r.refCorridor(L)
	if len(corridor) == 0 {
		return r.fallback(s, t)
	}
	prefix, holeFace := r.refSplit(corridor)
	left, right := r.refCorridorChains(L, s, t, prefix, holeFace)
	if holeFace >= 0 {
		return r.refHoleHitResult(s, left, right, holeFace)
	}

	lv := r.validChain(left)
	rv := r.validChain(right)
	switch {
	case lv && rv:
		if chainLength(r, left) <= chainLength(r, right) {
			return Result{Path: left, Reached: true}
		}
		return Result{Path: right, Reached: true}
	case lv:
		return Result{Path: left, Reached: true}
	case rv:
		return Result{Path: right, Reached: true}
	default:
		return r.fallback(s, t)
	}
}

// refSplit cuts the corridor at its first non-triangle face.
func (r *Router) refSplit(corridor []int) (prefix []int, holeFace int) {
	for i, f := range corridor {
		if !r.IsTriangleFace(f) {
			return corridor[:i], f
		}
	}
	return corridor, -1
}

// refCycle returns a copy of face fi's boundary cycle.
func (r *Router) refCycle(fi int) []NodeID {
	var cycle []NodeID
	for _, v := range r.faces.Row(fi) {
		cycle = append(cycle, NodeID(v))
	}
	return cycle
}

// refCorridor returns the faces whose interior the segment passes through,
// ordered by entry parameter, from a map of entries: the corridor's
// definition, tested on every face but the outer one. A face whose bounding
// box misses L's holds no point of L, so it is skipped before the
// predicates.
func (r *Router) refCorridor(L geom.Segment) []int {
	entries := make(map[int]float64)
	dir := L.B.Sub(L.A)
	len2 := dir.Dot(dir)
	paramOf := func(p geom.Point) float64 {
		return p.Sub(L.A).Dot(dir) / len2
	}
	box := geom.BoundingBox([]geom.Point{L.A, L.B})
	for fi := 0; fi < r.faces.Rows(); fi++ {
		if fi == r.outer {
			continue
		}
		fbox := geom.EmptyBox()
		for _, v := range r.faces.Row(fi) {
			fbox = fbox.Extend(r.g.Point(NodeID(v)))
		}
		if !box.Overlaps(fbox) {
			continue
		}
		var poly []geom.Point
		for _, v := range r.refCycle(fi) {
			poly = append(poly, r.g.Point(v))
		}
		n := len(poly)
		var params []float64
		for j := 0; j < n; j++ {
			e := geom.Seg(poly[j], poly[(j+1)%n])
			if geom.SegmentsProperlyIntersect(L, e) {
				if x, ok := geom.SegmentIntersection(L, e); ok {
					params = append(params, clamp01(paramOf(x)))
				}
			}
			if geom.OnSegment(poly[j], L) {
				params = append(params, clamp01(paramOf(poly[j])))
			}
		}
		if len(params) < 2 {
			continue
		}
		sortFloats(params)
		for j := 0; j+1 < len(params); j++ {
			if params[j+1]-params[j] < 1e-12 {
				continue
			}
			mid := geom.Lerp(L.A, L.B, (params[j]+params[j+1])/2)
			if geom.PointStrictlyInSimple(mid, poly) {
				if _, ok := entries[fi]; !ok {
					entries[fi] = params[j]
				}
				break
			}
		}
	}
	return sortFacesByEntry(entries)
}

// sortFacesByEntry orders face indices by the parameter at which the segment
// first meets each face.
func sortFacesByEntry(entries map[int]float64) []int {
	idx := make([]int, 0, len(entries))
	for f := range entries {
		idx = append(idx, f)
	}
	sort.Slice(idx, func(i, j int) bool {
		if entries[idx[i]] != entries[idx[j]] {
			return entries[idx[i]] < entries[idx[j]]
		}
		return idx[i] < idx[j]
	})
	return idx
}

// refCorridorChains builds the left and right boundary chains, deduping each
// vertex by a scan of the chain it joins.
func (r *Router) refCorridorChains(L geom.Segment, s, t NodeID, prefix []int, holeFace int) (left, right []NodeID) {
	dir := L.B.Sub(L.A)
	len2 := dir.Dot(dir)
	paramOf := func(p geom.Point) float64 { return p.Sub(L.A).Dot(dir) / len2 }

	left = []NodeID{s}
	right = []NodeID{s}
	for _, fi := range prefix {
		verts := r.refCycle(fi)
		sortByParam(verts, func(v NodeID) float64 { return paramOf(r.g.Point(v)) })
		for _, v := range verts {
			if v == s || v == t {
				continue
			}
			switch geom.Orient(L.A, L.B, r.g.Point(v)) {
			case geom.CounterClockwise:
				left = appendSide(left, v)
			case geom.Clockwise:
				right = appendSide(right, v)
			default:
				left = appendSide(left, v)
				right = appendSide(right, v)
			}
		}
	}
	if holeFace < 0 {
		left = append(left, t)
		right = append(right, t)
	}
	return left, right
}

// appendSide appends v to chain unless the chain already holds it.
func appendSide(chain []NodeID, v NodeID) []NodeID {
	for _, u := range chain {
		if u == v {
			return chain
		}
	}
	return append(chain, v)
}

// sortByParam orders vertices by key, keeping the input order of equal keys.
func sortByParam(vs []NodeID, key func(NodeID) float64) {
	sort.SliceStable(vs, func(i, j int) bool { return key(vs[i]) < key(vs[j]) })
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

// refHoleHitResult routes to a boundary node of the blocking face along
// whichever chain reaches one, preferring the shorter, from a map of the
// face's vertices.
func (r *Router) refHoleHitResult(s NodeID, left, right []NodeID, holeFace int) Result {
	onFace := map[NodeID]bool{}
	for _, v := range r.refCycle(holeFace) {
		onFace[v] = true
	}
	trim := func(chain []NodeID) []NodeID {
		for i, v := range chain {
			if onFace[v] {
				return chain[:i+1]
			}
		}
		return nil
	}
	cands := [][]NodeID{}
	if c := trim(left); c != nil && r.validChain(c) {
		cands = append(cands, c)
	}
	if c := trim(right); c != nil && r.validChain(c) {
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		if onFace[s] {
			return Result{Path: []NodeID{s}, HoleHit: true, HitNode: s, HoleFace: holeFace}
		}
		best := Result{}
		bestLen := -1.0
		for _, v := range r.refCycle(holeFace) {
			if path, l, ok := r.g.ShortestPath(s, v); ok && (bestLen < 0 || l < bestLen) {
				best = Result{Path: path, HoleHit: true, HitNode: v, HoleFace: holeFace, Fallback: true}
				bestLen = l
			}
		}
		return best
	}
	pick := cands[0]
	if len(cands) == 2 && chainLength(r, cands[1]) < chainLength(r, cands[0]) {
		pick = cands[1]
	}
	return Result{Path: pick, HoleHit: true, HitNode: pick[len(pick)-1], HoleFace: holeFace}
}
