package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

// routerOver builds the router over the LDel² graph of a point set.
func routerOver(pts []geom.Point, radius float64) *Router {
	return New(delaunay.LDel2Fast(udg.Build(pts, radius)))
}

// exactLinesGrid is a bordered grid of k×k cells of the given spacing
// without the points in or near the obstacle (nil for none). Its border and
// both diagonals are exact, so a segment between two nodes on one diagonal
// passes through every node between them; the other points carry the
// workload generators' jitter, which breaks the grid's cocircular quadruples.
func exactLinesGrid(k int, spacing float64, obstacle []geom.Point) []geom.Point {
	near := func(p geom.Point) bool {
		if obstacle == nil {
			return false
		}
		for i := range obstacle {
			if geom.DistPointSegment(p, obstacle[i], obstacle[(i+1)%len(obstacle)]) < 0.05 {
				return true
			}
		}
		return geom.PointInPolygon(p, obstacle)
	}
	var pts []geom.Point
	for i := 0; i <= k; i++ {
		for j := 0; j <= k; j++ {
			x, y := spacing*float64(i), spacing*float64(j)
			p := geom.Pt(x, y)
			if i != 0 && j != 0 && i != k && j != k && i != j && i+j != k {
				p = geom.Pt(x+1e-4*math.Sin(13*x+7*y), y+1e-4*math.Cos(11*x-5*y))
			}
			if !near(p) {
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// latticeNodes returns the nodes sitting exactly on the lattice of the given
// spacing (the unjittered border of a bordered grid, plus the diagonals of
// an exact-lines grid). Segments between them run through vertices and
// along edges.
func latticeNodes(r *Router, spacing float64) []NodeID {
	exact := func(c float64) bool {
		q := c / spacing
		return math.Abs(q-math.Round(q)) < 1e-9
	}
	var out []NodeID
	for v := 0; v < r.g.N(); v++ {
		if p := r.g.Point(NodeID(v)); exact(p.X) && exact(p.Y) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// nearestNode returns the node of r's graph closest to p.
func nearestNode(r *Router, p geom.Point) NodeID {
	best, bestD := NodeID(0), math.Inf(1)
	for v := 0; v < r.g.N(); v++ {
		if d := r.g.Point(NodeID(v)).Dist(p); d < bestD {
			best, bestD = NodeID(v), d
		}
	}
	return best
}

// chewClass is how a Chew answer relates to the reference walk's.
type chewClass int

const (
	sameAnswer     chewClass = iota // the reference's answer
	fallbackToWalk                  // the reference fell back to a graph shortest path; Chew did not
	changedAnswer                   // a reference chain is not a path, and Chew's answer differs
	numChewClasses
)

// compareWithReference checks the corridor, both chains and the Chew result
// of s→t against the reference walk. Chew must equal refChew wherever both
// reference chains are paths and refChew did not fall back. Elsewhere it must
// agree with refChew on Reached, HoleHit and HoleFace and return a path of g,
// which, unless refChew fell back, is no longer than refChew's.
func compareWithReference(r *Router, s, t NodeID) (chewClass, error) {
	got, want := r.Chew(s, t), r.refChew(s, t)
	if s == t || r.g.HasEdge(s, t) {
		if !reflect.DeepEqual(got, want) {
			return 0, fmt.Errorf("Chew(%d, %d) = %+v, reference %+v", s, t, got, want)
		}
		return sameAnswer, nil // answered before any corridor is built
	}
	L := geom.Seg(r.g.Point(s), r.g.Point(t))
	sc := r.getScratch()
	defer r.putScratch(sc)
	faces := slices.Clone(r.corridor(L, s, t, sc))
	if want := r.refCorridor(L); !slices.Equal(faces, want) {
		return 0, fmt.Errorf("corridor(%d, %d) = %v, reference %v", s, t, faces, want)
	}
	prefix, holeFace := r.refSplit(faces)
	left, right := r.corridorChains(L, s, t, prefix, holeFace, sc)
	wantL, wantR := r.refCorridorChains(L, s, t, prefix, holeFace)
	if !slices.Equal(left, wantL) || !slices.Equal(right, wantR) {
		return 0, fmt.Errorf("chains(%d, %d) = %v | %v, reference %v | %v", s, t, left, right, wantL, wantR)
	}

	if r.validChain(wantL) && r.validChain(wantR) && !want.Fallback {
		if !reflect.DeepEqual(got, want) {
			return 0, fmt.Errorf("Chew(%d, %d) = %+v, reference %+v", s, t, got, want)
		}
		return sameAnswer, nil
	}
	if got.Reached != want.Reached || got.HoleHit != want.HoleHit || got.HoleFace != want.HoleFace {
		return 0, fmt.Errorf("Chew(%d, %d) = %+v, reference %+v: outcomes differ", s, t, got, want)
	}
	if err := checkChewPath(r, s, t, got); err != nil {
		return 0, err
	}
	switch {
	case reflect.DeepEqual(got, want):
		return sameAnswer, nil
	case want.Fallback:
		return fallbackToWalk, nil
	case got.Length(r.g) > want.Length(r.g):
		return 0, fmt.Errorf("Chew(%d, %d) = %+v is longer than the reference %+v", s, t, got, want)
	}
	return changedAnswer, nil
}

// checkChewPath checks that a Chew answer is a path of g from s: every step
// an edge of g, ending at t when it reached t, and at HitNode, a node of
// HoleFace, when it hit a hole. Only an answer that did neither may have no
// path (the graph shortest path from an edgeless s to the hole's nodes).
func checkChewPath(r *Router, s, t NodeID, res Result) error {
	p := res.Path
	if len(p) == 0 && !res.Reached && !res.HoleHit {
		return nil
	}
	if len(p) == 0 || p[0] != s {
		return fmt.Errorf("Chew(%d, %d) path %v does not start at s", s, t, p)
	}
	for i := 1; i < len(p); i++ {
		if !r.g.HasEdge(p[i-1], p[i]) {
			return fmt.Errorf("Chew(%d, %d) steps %d→%d, which is no edge of g", s, t, p[i-1], p[i])
		}
	}
	switch end := p[len(p)-1]; {
	case res.Reached && end != t:
		return fmt.Errorf("Chew(%d, %d) reached, but its path ends at %d", s, t, end)
	case res.HoleHit && (end != res.HitNode || !slices.Contains(r.faces.Row(res.HoleFace), int32(end))):
		return fmt.Errorf("Chew(%d, %d) hit face %d, but its path ends at %d", s, t, res.HoleFace, end)
	}
	return nil
}

// deployment is one network of the differential tests.
type deployment struct {
	name    string
	points  func() ([]geom.Point, error)
	spacing float64 // lattice of the exact nodes; 0 for none
	// churn picks the nodes that crash after the LDel² build, whose edges
	// churn repair removes, and the nodes the pairs favour; nil for none.
	churn func(pts []geom.Point) (crashed, favoured []NodeID)
}

// build returns the deployment's router, its lattice nodes and the nodes its
// pairs favour.
func (d deployment) build() (r *Router, lattice, favoured []NodeID, err error) {
	pts, err := d.points()
	if err != nil {
		return nil, nil, nil, err
	}
	ld := delaunay.LDel2Fast(udg.Build(pts, 1))
	if d.churn != nil {
		var crashed []NodeID
		crashed, favoured = d.churn(pts)
		for _, v := range crashed {
			ld.RemoveNodeEdges(v)
		}
	}
	r = New(ld)
	if d.spacing > 0 {
		lattice = latticeNodes(r, d.spacing)
	}
	return r, lattice, favoured, nil
}

// referenceDeployments covers every deployment family: random points with
// and without obstacles, city blocks, a maze, a jittered grid, and grids
// whose exact lines put vertices on the segment and edges along it. At
// spacing 0.5 two grid steps equal the radio range. Two more hold the walk
// to the premise it rests on: a churned grid, whose crashed nodes have no
// edges and whose island shares no edge with the face holding it, and a grid
// translated by 10⁵.
func referenceDeployments() []deployment {
	hole := workload.RegularPolygon(geom.Pt(5, 5), 1.6, 6, 0.3)
	scenario := func(sc *workload.Scenario, err error) func() ([]geom.Point, error) {
		return func() ([]geom.Point, error) {
			if err != nil {
				return nil, err
			}
			return sc.Points, nil
		}
	}
	translated := func() ([]geom.Point, error) {
		sc, err := workload.BorderedGrid(0.5, 10, 10, 1, [][]geom.Point{hole})
		if err != nil {
			return nil, err
		}
		pts := make([]geom.Point, len(sc.Points))
		for i, p := range sc.Points {
			pts[i] = p.Add(geom.Pt(1e5, 1e5))
		}
		return pts, nil
	}
	churned := func() ([]geom.Point, error) {
		return exactLinesGrid(24, 0.5, workload.RegularPolygon(geom.Pt(4, 4), 1.4, 6, 0.3)), nil
	}
	return []deployment{
		{"uniform", scenario(workload.Uniform(3, 350, 8.5, 8.5, 1)), 0, nil},
		{"obstacles", scenario(workload.WithObstacles(4, 520, 11, 11, 1, workload.RandomConvexObstacles(4, 4, 11, 11, 0.8, 1.6, 2))), 0, nil},
		{"city", scenario(workload.CityGrid(7, 2, 2, 3.2, 3.2, 2.4, 1, 5.5)), 0, nil},
		{"maze", scenario(workload.Maze(2, 14, 10, 7, 8.4, 1.2, 1, 900)), 0, nil},
		{"jittered", scenario(workload.JitteredGrid(0.55, 10, 10, 1, [][]geom.Point{hole})), 0, nil},
		{"bordered-0.5", scenario(workload.BorderedGrid(0.5, 10, 10, 1, [][]geom.Point{hole})), 0.5, nil},
		{"bordered-0.55", scenario(workload.BorderedGrid(0.55, 10, 10, 1, [][]geom.Point{hole})), 0.55, nil},
		{"exact-lines", func() ([]geom.Point, error) { return exactLinesGrid(20, 0.5, hole), nil }, 0.5, nil},
		{"churned", churned, 0.5, churnIsland},
		{"translated", translated, 0.5, nil},
	}
}

// churnIsland crashes the nodes of a 12×12 exact-lines grid that cut off an
// island around (8.5, 8.5) on its main diagonal: a ring wider than the radio
// range. It also crashes one other node in 25, plus two border nodes that lie
// on hull edges and a hull corner. Crashed nodes on the diagonals merge
// triangles into non-triangle faces there, which a segment along a diagonal
// can leave through a vertex. The pairs favour the crashed nodes and the
// island.
func churnIsland(pts []geom.Point) (crashed, favoured []NodeID) {
	c := geom.Pt(8.5, 8.5)
	rng := rand.New(rand.NewSource(11))
	var island []NodeID
	for v, p := range pts {
		d := p.Dist(c)
		switch {
		case d < 1.2:
			island = append(island, NodeID(v))
		case d < 2.3:
			crashed = append(crashed, NodeID(v))
		case rng.Intn(25) == 0 || p == geom.Pt(3, 0) || p == geom.Pt(0, 6.5) || p == geom.Pt(12, 0):
			crashed = append(crashed, NodeID(v))
		}
	}
	return crashed, append(island, crashed...)
}

// eachDeployment runs body in one parallel subtest per deployment, with the
// deployment's router and a generator of its random pairs. On the grids
// every fourth pair joins two lattice nodes; on the churned grid the next two
// of every four start or end at a crashed or island node.
func eachDeployment(t *testing.T, body func(t *testing.T, name string, r *Router, next func() (s, u NodeID))) {
	for i, d := range referenceDeployments() {
		d, seed := d, int64(i+1)
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			r, lattice, favoured, err := d.build()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			n := r.g.N()
			k := 0
			body(t, d.name, r, func() (s, u NodeID) {
				s, u = NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				switch {
				case k%4 == 0 && len(lattice) > 0:
					s, u = lattice[rng.Intn(len(lattice))], lattice[rng.Intn(len(lattice))]
				case k%4 == 1 && len(favoured) > 0:
					s = favoured[rng.Intn(len(favoured))]
				case k%4 == 2 && len(favoured) > 0:
					u = favoured[rng.Intn(len(favoured))]
				}
				k++
				return s, u
			})
		})
	}
}

// forPairs calls check on random pairs of every deployment.
func forPairs(t *testing.T, pairs int, check func(r *Router, s, u NodeID) error) {
	eachDeployment(t, func(t *testing.T, _ string, r *Router, next func() (NodeID, NodeID)) {
		for k := 0; k < pairs; k++ {
			s, u := next()
			if err := check(r, s, u); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestCorridorMatchesReference holds the corridor walk and Chew's answers to
// the reference walk on random pairs over every deployment family, and logs
// how the answers split between compareWithReference's classes.
func TestCorridorMatchesReference(t *testing.T) {
	pairs := 3000
	if testing.Short() {
		pairs = 300
	}
	var mu sync.Mutex
	var total [numChewClasses]int
	t.Cleanup(func() {
		t.Logf("all deployments: %d answers as the reference's, %d reference fallbacks answered from the walk, %d changed where a reference chain is not a path",
			total[sameAnswer], total[fallbackToWalk], total[changedAnswer])
	})
	eachDeployment(t, func(t *testing.T, _ string, r *Router, next func() (NodeID, NodeID)) {
		var n [numChewClasses]int
		for k := 0; k < pairs; k++ {
			s, u := next()
			c, err := compareWithReference(r, s, u)
			if err != nil {
				t.Fatal(err)
			}
			n[c]++
		}
		t.Logf("%d same, %d fallbacks answered from the walk, %d changed", n[sameAnswer], n[fallbackToWalk], n[changedAnswer])
		mu.Lock()
		defer mu.Unlock()
		for c := range total {
			total[c] += n[c]
		}
	})
}

// answersFromCorridor reports whether Chew answers s→t from the corridor
// rather than from its walk.
func answersFromCorridor(r *Router, s, t NodeID) bool {
	if s == t || r.g.HasEdge(s, t) {
		return false
	}
	sc := r.getScratch()
	defer r.putScratch(sc)
	_, ok := r.chewFromWalk(geom.Seg(r.g.Point(s), r.g.Point(t)), s, t, sc)
	return !ok
}

// TestChewAnswersArePaths checks every Chew answer on random pairs of the
// reference deployments, lattice pairs along the borders among them: each
// step of its path is an edge of g. It also pins how many of the pairs Chew
// answers from the corridor rather than from its walk. On the bordered grids
// those are pairs whose walk enters the outer row, which swallows the corner
// triangles there (see the hull edges in DESIGN.md); on the uniform, obstacle
// and city deployments one pair each whose chains both step over a CH(V)
// edge; on the churned grid mostly pairs with an end that has no edges or
// lies on the island.
func TestChewAnswersArePaths(t *testing.T) {
	fromCorridor := map[string]int{
		"uniform": 1, "obstacles": 1, "city": 1, "maze": 0, "jittered": 0,
		"bordered-0.5": 60, "bordered-0.55": 77, "exact-lines": 88, "churned": 1590, "translated": 61,
	}
	eachDeployment(t, func(t *testing.T, name string, r *Router, next func() (NodeID, NodeID)) {
		slow := 0
		for k := 0; k < 3000; k++ {
			s, u := next()
			if err := checkChewPath(r, s, u, r.Chew(s, u)); err != nil {
				t.Fatal(err)
			}
			if answersFromCorridor(r, s, u) {
				slow++
			}
		}
		if slow != fromCorridor[name] {
			t.Errorf("%d of 3000 pairs answered from the corridor, want %d", slow, fromCorridor[name])
		}
	})
}

// TestChewConcurrentMatchesReference runs the walk from several goroutines
// over one router: each call takes its own pooled scratch, and no result may
// alias a buffer another call reuses.
func TestChewConcurrentMatchesReference(t *testing.T) {
	r := fuzzChewGrid()
	n := r.g.N()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 300; k++ {
				if _, err := compareWithReference(r, NodeID(rng.Intn(n)), NodeID(rng.Intn(n))); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestCorridorReferenceHandCases covers the configurations random pairs
// reach only by luck: a segment along a grid line (empty corridor, so the
// walk falls back), a segment through a run of vertices, a corridor whose
// first face is a hole, and adjacent endpoints.
func TestCorridorReferenceHandCases(t *testing.T) {
	sc, err := workload.BorderedGrid(0.5, 10, 10, 1, [][]geom.Point{workload.Rect(4, 4, 2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	r := routerOver(sc.Points, sc.Radius)
	at := func(t *testing.T, r *Router, x, y float64) NodeID {
		t.Helper()
		v := nearestNode(r, geom.Pt(x, y))
		if r.g.Point(v) != geom.Pt(x, y) {
			t.Fatalf("no node at (%v, %v)", x, y)
		}
		return v
	}
	check := func(t *testing.T, r *Router, s, u NodeID) Result {
		t.Helper()
		if _, err := compareWithReference(r, s, u); err != nil {
			t.Fatal(err)
		}
		return r.Chew(s, u)
	}

	t.Run("grid-line", func(t *testing.T) {
		// The corridor is empty, so the reference falls back to a graph
		// shortest path; the walk steps along the border edges and answers
		// with them.
		s, u := at(t, r, 0, 0), at(t, r, 0, 4)
		sc := r.getScratch()
		defer r.putScratch(sc)
		if c := r.corridor(geom.Seg(r.g.Point(s), r.g.Point(u)), s, u, sc); len(c) != 0 {
			t.Fatalf("segment along the border crosses faces %v", c)
		}
		res := check(t, r, s, u)
		if !res.Reached || res.Fallback || len(res.Path) != 9 {
			t.Fatalf("border segment: %+v, want the 9 border nodes without a fallback", res)
		}
		for _, v := range res.Path {
			if r.g.Point(v).X != 0 {
				t.Fatalf("border segment: %v leaves the border at %d", res.Path, v)
			}
		}
	})

	t.Run("through-vertices", func(t *testing.T) {
		r := routerOver(exactLinesGrid(12, 0.5, nil), 1)
		s, u := at(t, r, 0, 0), at(t, r, 6, 6)
		if res := check(t, r, s, u); !res.Reached {
			t.Fatalf("diagonal: %+v", res)
		}
		L := geom.Seg(r.g.Point(s), r.g.Point(u))
		sc := r.getScratch()
		defer r.putScratch(sc)
		prefix, holeFace := r.refSplit(slices.Clone(r.corridor(L, s, u, sc)))
		left, right := r.corridorChains(L, s, u, prefix, holeFace, sc)
		onL := 0
		for _, v := range left[1 : len(left)-1] {
			if geom.Orient(L.A, L.B, r.g.Point(v)) == geom.Collinear {
				onL++
				if !slices.Contains(right, v) {
					t.Fatalf("vertex %d on the segment is missing from the right chain", v)
				}
			}
		}
		if onL < 5 {
			t.Fatalf("only %d chain vertices on the diagonal", onL)
		}
	})

	t.Run("hole-first", func(t *testing.T) {
		// s on the hole's west side, t due east across it: the first face the
		// segment enters is the hole.
		found := false
		for y := 4.0; y <= 6 && !found; y += 0.5 {
			s, u := nearestNode(r, geom.Pt(3.5, y)), nearestNode(r, geom.Pt(7, y))
			sc := r.getScratch()
			c := r.corridor(geom.Seg(r.g.Point(s), r.g.Point(u)), s, u, sc)
			found = len(c) > 0 && !r.IsTriangleFace(c[0])
			r.putScratch(sc)
			if !found {
				continue
			}
			if res := check(t, r, s, u); !res.HoleHit || res.HitNode != s {
				t.Fatalf("hole-first corridor %d→%d: %+v, want a hole hit at s", s, u, res)
			}
		}
		if !found {
			t.Fatal("no pair whose corridor starts with the hole")
		}
	})

	t.Run("adjacent", func(t *testing.T) {
		s := at(t, r, 0, 0)
		u := r.g.Neighbors(s)[0]
		if res := check(t, r, s, u); !res.Reached || len(res.Path) != 2 {
			t.Fatalf("adjacent pair: %+v", res)
		}
	})
}

// fuzzChewGrid is FuzzChew's deployment: a 16×16-cell exact-lines grid at
// spacing 0.5 with one hole below both diagonals.
var fuzzChewGrid = sync.OnceValue(func() *Router {
	return routerOver(exactLinesGrid(16, 0.5, workload.Rect(3, 0.8, 2.2, 1.6)), 1)
})

// fuzzChurnedGrid is the churned deployment of the differential tests, for
// the fuzz targets.
var fuzzChurnedGrid = sync.OnceValue(func() *Router {
	for _, d := range referenceDeployments() {
		if d.name == "churned" {
			r, _, _, err := d.build()
			if err != nil {
				panic(err)
			}
			return r
		}
	}
	panic("no churned deployment")
})

// fuzzRouter picks a fuzz target's deployment and the node nearest (x, y) on
// it.
func fuzzRouter(churned bool) *Router {
	if churned {
		return fuzzChurnedGrid()
	}
	return fuzzChewGrid()
}

// addFuzzSeeds seeds a fuzz target over both deployments: on the exact-lines
// grid, pairs along the main diagonal, the anti-diagonal and the border,
// across the hole, adjacent and equal; on the churned grid, pairs from and to
// crashed nodes (one on a hull edge, one next to a corner, one inside), into
// and out of the island, and from the island across the ring.
func addFuzzSeeds(f *testing.F) {
	node := func(churned bool, x, y float64) uint16 {
		return uint16(nearestNode(fuzzRouter(churned), geom.Pt(x, y)))
	}
	for _, c := range []struct {
		churned        bool
		sx, sy, tx, ty float64
	}{
		{false, 0, 0, 8, 8},
		{false, 0, 8, 8, 0},
		{false, 0, 0, 0, 6},
		{false, 2, 1.2, 7, 1.4},
		{false, 4, 4, 4.5, 4.5},
		{false, 3, 5, 3, 5},
		{true, 3, 0, 3, 6},
		{true, 11.5, 0.5, 11.5, 3.5},
		{true, 8.5, 6.5, 8.5, 10.5},
		{true, 8.5, 8.5, 1, 11},
		{true, 1, 11, 9, 8.5},
		{true, 3, 0, 9, 0},
	} {
		f.Add(node(c.churned, c.sx, c.sy), node(c.churned, c.tx, c.ty), c.churned)
	}
}

// FuzzChew holds the corridor walk to the reference walk on fuzzed pairs of
// a bordered grid with one hole whose diagonals are exact, and of the
// churned grid.
func FuzzChew(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, a, b uint16, churned bool) {
		r := fuzzRouter(churned)
		n := r.g.N()
		if _, err := compareWithReference(r, NodeID(int(a)%n), NodeID(int(b)%n)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChewCorridorShareOnColdLayouts pins how many of 30 000 random pairs
// Chew answers from the corridor rather than from its walk on the layouts of
// perfbench's cold workloads: the 316×316-point bordered grid with two
// central obstacles (field-cold) and the 151×151-point one with 24 random
// convex obstacles (holes-cold). The count runs on one goroutine, so the race
// pass skips it; it is no short test either.
func TestChewCorridorShareOnColdLayouts(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("builds a 10⁵-node router")
	}
	central := func(side float64) [][]geom.Point {
		c := side / 2
		return [][]geom.Point{
			workload.StarPolygon(geom.Pt(c, c+0.2), 1.6, 0.7, 5, 0.3),
			workload.RegularPolygon(geom.Pt(c+4.4, c+3.6), 1.3, 6, 0.2),
		}
	}
	for _, c := range []struct {
		name      string
		side      float64
		obstacles [][]geom.Point
		want      int
	}{
		{"field-cold", 173.25, central(173.25), 1},
		{"holes-cold", 82.5, workload.RandomConvexObstacles(2, 24, 82.5, 82.5, 0.8, 1.6, 2), 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, err := workload.BorderedGrid(0.55, c.side, c.side, 1, c.obstacles)
			if err != nil {
				t.Fatal(err)
			}
			r := routerOver(sc.Points, sc.Radius)
			rng := rand.New(rand.NewSource(1))
			n := r.g.N()
			slow := 0
			for k := 0; k < 30000; k++ {
				if answersFromCorridor(r, NodeID(rng.Intn(n)), NodeID(rng.Intn(n))) {
					slow++
				}
			}
			if slow != c.want {
				t.Errorf("%d of 30 000 pairs answered from the corridor, want %d", slow, c.want)
			}
		})
	}
}
