// Package vis implements shortest paths in polygonal domains, the
// computational-geometry machinery behind both routing strategies of the
// paper: the Visibility Graph of all hole nodes (Section 3, giving
// 17.7-competitive paths) and the Overlay Delaunay Graph of convex hull
// nodes (Section 4, giving ≤ 35.37-competitive paths with much smaller
// storage). Lemma 2.12 (de Berg et al.) justifies both: any shortest path
// among disjoint polygonal obstacles is a polygonal path whose inner
// vertices are obstacle vertices.
package vis

import (
	"math"
	"sync/atomic"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
)

// cullMargin widens each obstacle's bounding box for culling. A skipped
// obstacle must be one SegmentIntersectsPolygon and PointStrictlyInSimple
// report false for, so the margin must exceed the rounding of the sampled
// probe points (geom.Lerp) and of the even-odd crossing abscissa. For
// coordinates below 10⁶ in magnitude both stay under 10⁻⁹.
const cullMargin = 1e-6

// obstacleSet is a set of polygonal obstacles with the visibility and
// containment predicates over them. Each obstacle keeps its bounding box
// widened by cullMargin, so the predicates run the per-polygon test only on
// obstacles the query can reach.
type obstacleSet struct {
	polys   [][]geom.Point
	boxes   []geom.Box // widened bounding box of polys[i]
	corners []geom.Point
	owner   []int  // corners[i] is a corner of polys[owner[i]]
	first   []int  // corners[first[i]] is polys[i][0]
	convex  []bool // polys[i] is strictly convex and counterclockwise
	// index maps a corner position to its first index in corners, and
	// rows[c], once filled, holds Links(corners[c]) as one bit per corner.
	index map[geom.Point]int
	rows  []atomic.Pointer[row]
}

func newObstacleSet(polys [][]geom.Point) obstacleSet {
	o := obstacleSet{
		polys:  polys,
		boxes:  make([]geom.Box, len(polys)),
		first:  make([]int, len(polys)),
		convex: make([]bool, len(polys)),
	}
	for i, poly := range polys {
		b := geom.BoundingBox(poly)
		o.boxes[i] = geom.Box{
			Min: geom.Pt(b.Min.X-cullMargin, b.Min.Y-cullMargin),
			Max: geom.Pt(b.Max.X+cullMargin, b.Max.Y+cullMargin),
		}
		o.first[i] = len(o.corners)
		o.convex[i] = strictlyConvexCCW(poly)
		o.corners = append(o.corners, poly...)
		for range poly {
			o.owner = append(o.owner, i)
		}
	}
	o.index = make(map[geom.Point]int, len(o.corners))
	for c := len(o.corners) - 1; c >= 0; c-- { // backwards: the first index wins
		o.index[o.corners[c]] = c
	}
	o.rows = make([]atomic.Pointer[row], len(o.corners))
	return o
}

// Obstacles returns the obstacle polygons; callers must not modify them.
func (o *obstacleSet) Obstacles() [][]geom.Point { return o.polys }

// Corners returns all obstacle corners in index order; callers must not
// modify the slice.
func (o *obstacleSet) Corners() []geom.Point { return o.corners }

// Visible reports whether the open segment ab avoids every obstacle
// interior: the segment may touch boundaries and run along obstacle edges,
// but may not properly cross an edge or pass through an interior.
//
// An obstacle is skipped when the segment's box misses its widened box or
// the segment's line leaves the widened box strictly on one side. Both
// tests are exact (geom.Orient is), so a skipped polygon has no edge the
// segment properly crosses, and the margin keeps every sampled probe
// outside it: the answer equals the plain loop over all obstacles.
func (o *obstacleSet) Visible(a, b geom.Point) bool {
	sb := geom.EmptyBox().Extend(a).Extend(b)
	for i := range o.polys {
		if sb.Overlaps(o.boxes[i]) && o.blocks(i, a, b) {
			return false
		}
	}
	return true
}

// blocks is Visible's test of obstacle i against segment ab once the
// segment's box meets the obstacle's: the line cull, then the predicate.
func (o *obstacleSet) blocks(i int, a, b geom.Point) bool {
	return !lineMissesBox(a, b, o.boxes[i]) && geom.SegmentIntersectsPolygon(geom.Seg(a, b), o.polys[i])
}

// lineMissesBox reports whether every corner of box lies strictly on the
// same side of the line through a and b.
func lineMissesBox(a, b geom.Point, box geom.Box) bool {
	c := box.Corners()
	side := geom.Orient(a, b, c[0])
	if side == geom.Collinear {
		return false
	}
	return geom.Orient(a, b, c[1]) == side && geom.Orient(a, b, c[2]) == side &&
		geom.Orient(a, b, c[3]) == side
}

// PointInObstacle reports whether p lies strictly inside some obstacle. An
// obstacle whose widened box misses p is skipped.
func (o *obstacleSet) PointInObstacle(p geom.Point) bool {
	for i, poly := range o.polys {
		if o.boxes[i].Contains(p) && geom.PointStrictlyInSimple(p, poly) {
			return true
		}
	}
	return false
}

// shortestPath is the search Domain and Overlay share over their corner
// graphs base: it returns the shortest path from s to t through base plus
// the links joining s and t to every corner they see, as a polyline
// including both endpoints, and its length. ok is false when s or t is
// strictly inside an obstacle or base leaves t unreachable.
func (o *obstacleSet) shortestPath(base [][]int, s, t geom.Point) ([]geom.Point, float64, bool) {
	if o.PointInObstacle(s) || o.PointInObstacle(t) {
		return nil, 0, false
	}
	if o.Visible(s, t) {
		return []geom.Point{s, t}, s.Dist(t), true
	}
	return Search(o.corners, base, s, t, o.links(s), o.links(t))
}

// links is the link test shortestPath hands Search for endpoint p: the row
// of the corner at p, filled on first use, or Links(p) when p is no corner.
// The index matches positions by ==, so an endpoint written with -0 finds
// the row of the +0 corner; the sign of a zero changes no answer of the
// predicates Links runs.
func (o *obstacleSet) links(p geom.Point) func(i int) bool {
	if c, ok := o.index[p]; ok {
		return o.row(c).has
	}
	return o.Links(p)
}

// row returns corner c's row, filling it from Links(corners[c]) the first
// time. Goroutines that fill one row at once compute the same bits, and the
// compare-and-swap keeps the first to finish, so every caller reads one row.
func (o *obstacleSet) row(c int) row {
	if r := o.rows[c].Load(); r != nil {
		return *r
	}
	links := o.Links(o.corners[c])
	r := make(row, (len(o.corners)+63)/64)
	for i := range o.corners {
		if links(i) {
			r[i/64] |= 1 << (i % 64)
		}
	}
	o.rows[c].CompareAndSwap(nil, &r)
	return *o.rows[c].Load()
}

// row is a bitset over corner indexes: bit i answers Links(p)(i) for the
// corner p the row belongs to.
type row []uint64

func (r row) has(i int) bool { return r[i/64]&(1<<(i%64)) != 0 }

// Search runs Euclidean Dijkstra from s to t over the corner graph base
// (corner i at corners[i], base[i] its neighbours) plus a link from s to
// every corner fromS accepts and a link from every corner toT accepts to t.
// It returns the path's points, including both ends, and its length; ok is
// false when t is unreachable. Domain and Overlay link the corners an
// endpoint sees; abstraction's bounding-box backend links an endpoint
// inside a box to that box's corners.
//
// The links are never materialised, yet the answer is the one Dijkstra
// gives on the graph with s's row and each accepted corner's t appended to
// its row, bit for bit and tie for tie: when s pops, the first pop, every
// corner fromS accepts is relaxed in index order, and toT is asked about a
// corner only when the corner is settled, right after its base neighbours,
// so the heap sees that graph's pushes in that graph's order. t has no
// out-edges, and corners that never pop before t are never asked.
func Search(corners []geom.Point, base [][]int, s, t geom.Point, fromS, toT func(i int) bool) ([]geom.Point, float64, bool) {
	n := len(corners)
	src, dst := n, n+1
	pos := func(i int) geom.Point {
		switch i {
		case src:
			return s
		case dst:
			return t
		default:
			return corners[i]
		}
	}
	dist := make([]float64, n+2)
	prev := make([]int, n+2)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := make(mem.Heap[int], 0, n+2)
	pq.Push(src, 0)
	relax := func(v int, pv geom.Point, d float64, w int) {
		if nd := d + pv.Dist(pos(w)); nd < dist[w] {
			dist[w] = nd
			prev[w] = v
			pq.Push(w, nd)
		}
	}
	for len(pq) > 0 {
		it := pq.Pop()
		if it.D > dist[it.V] {
			continue
		}
		if it.V == dst {
			break
		}
		pv := pos(it.V)
		if it.V == src {
			for i := 0; i < n; i++ {
				if fromS(i) {
					relax(src, pv, it.D, i)
				}
			}
			continue
		}
		for _, w := range base[it.V] {
			relax(it.V, pv, it.D, w)
		}
		if toT(it.V) {
			relax(it.V, pv, it.D, dst)
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, false
	}
	k := 1
	for v := dst; v != src; v = prev[v] {
		k++
	}
	path := make([]geom.Point, k)
	for v := dst; k > 0; v = prev[v] {
		k--
		path[k] = pos(v)
	}
	return path, dist[dst], true
}

// Domain is a set of disjoint polygonal obstacles with the full visibility
// graph of their corners, for shortest paths whose interior vertices are
// obstacle corners.
type Domain struct {
	obstacleSet
	// cornerAdj[i] lists the corners visible from corner i, ascending; the
	// relation is symmetric.
	cornerAdj [][]int
}

// NewDomain builds the visibility structure over the given obstacle
// polygons (each a vertex cycle, any orientation).
func NewDomain(obstacles [][]geom.Point) *Domain {
	d := &Domain{obstacleSet: newObstacleSet(obstacles)}
	n := len(d.corners)
	d.cornerAdj = make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d.Visible(d.corners[i], d.corners[j]) {
				d.cornerAdj[i] = append(d.cornerAdj[i], j)
				d.cornerAdj[j] = append(d.cornerAdj[j], i)
			}
		}
	}
	return d
}

// CornerEdges returns the number of undirected visibility edges between
// corners — the Θ(h²) storage cost the paper attributes to full visibility
// graphs.
func (d *Domain) CornerEdges() int {
	total := 0
	for _, a := range d.cornerAdj {
		total += len(a)
	}
	return total / 2
}

// ShortestPath returns the Euclidean shortest obstacle-avoiding path from s
// to t as a polyline including both endpoints, plus its length. ok is false
// only when s or t is strictly inside an obstacle (the domain is otherwise
// connected).
func (d *Domain) ShortestPath(s, t geom.Point) ([]geom.Point, float64, bool) {
	return d.shortestPath(d.cornerAdj, s, t)
}

// Overlay is the Overlay Delaunay Graph of Section 4: the Delaunay graph of
// all convex hull corners, restricted to edges that do not cut through any
// hull, with the hull boundary edges always present. Compared to the full
// visibility graph its edge count is linear in the number of hull nodes
// (planarity), which is the paper's space reduction; paths lengthen by at
// most the 1.998 Delaunay spanning ratio.
type Overlay struct {
	obstacleSet
	adj [][]int
}

// NewOverlay builds the overlay Delaunay graph over the given convex hulls
// (each a CCW vertex cycle). The hulls are also the visibility obstacles.
func NewOverlay(hulls [][]geom.Point) *Overlay {
	o := &Overlay{obstacleSet: newObstacleSet(hulls)}
	n := len(o.corners)
	o.adj = make([][]int, n)

	addEdge := func(i, j int) {
		for _, w := range o.adj[i] {
			if w == j {
				return
			}
		}
		o.adj[i] = append(o.adj[i], j)
		o.adj[j] = append(o.adj[j], i)
	}

	// Delaunay edges between hull corners, filtered by visibility.
	if n >= 3 {
		tr := delaunay.Triangulate(o.corners)
		for _, e := range tr.Edges() {
			if o.Visible(o.corners[e[0]], o.corners[e[1]]) {
				addEdge(e[0], e[1])
			}
		}
	}
	// Hull boundary edges are always part of the overlay.
	base := 0
	for _, h := range hulls {
		for i := range h {
			addEdge(base+i, base+(i+1)%len(h))
		}
		base += len(h)
	}
	return o
}

// EdgeCount returns the number of undirected overlay edges — O(h) by
// planarity, versus Θ(h²) for the visibility graph.
func (o *Overlay) EdgeCount() int {
	total := 0
	for _, a := range o.adj {
		total += len(a)
	}
	return total / 2
}

// Edges returns each undirected overlay edge once as corner index pairs.
func (o *Overlay) Edges() [][2]int {
	var out [][2]int
	for i, nbrs := range o.adj {
		for _, j := range nbrs {
			if i < j {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// ShortestPath returns the shortest path from s to t through the overlay
// Delaunay graph, entering and leaving at visible hull corners. This is the
// path the convex hull nodes compute for the routing protocol of Section 4.3.
func (o *Overlay) ShortestPath(s, t geom.Point) ([]geom.Point, float64, bool) {
	return o.shortestPath(o.adj, s, t)
}
