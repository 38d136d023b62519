package expt

import (
	"fmt"
	"math"
	"math/rand"

	"hybridroute/internal/core"
	"hybridroute/internal/delaunay"
	"hybridroute/internal/domset"
	"hybridroute/internal/geom"
	"hybridroute/internal/hyper"
	"hybridroute/internal/routing"
	"hybridroute/internal/sim"
	"hybridroute/internal/stats"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

// E1 measures preprocessing rounds and per-node communication work as n
// grows (Theorem 1.2: O(log² n) rounds, polylog work per node).
func E1(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E1",
		Title: "Preprocessing rounds and communication work vs n",
		Claim: "Theorem 1.2: abstraction computed in O(log² n) rounds with polylog communication work per node",
	}
	sizes := []int{128, 256, 512, 1024}
	if opt.Quick {
		sizes = []int{128, 256}
	}
	res.Table = stats.NewTable("n", "rounds", "rounds/log²n", "ldel", "rings", "tree", "flood", "domset", "maxMsgs/node", "maxMsgs/log²n")
	var ratios []float64
	for _, n := range sizes {
		nw, _, err := preprocessScenario(opt, n)
		if err != nil {
			return nil, fmt.Errorf("E1 n=%d: %w", n, err)
		}
		l2 := log2(float64(n)) * log2(float64(n))
		r := nw.Report.Rounds
		res.Table.AddRow(n, r.Total, float64(r.Total)/l2,
			r.LDel, r.Rings, r.Tree, r.Flood, r.DomSet,
			nw.Report.MaxMsgs, float64(nw.Report.MaxMsgs)/l2)
		ratios = append(ratios, float64(r.Total)/l2)
	}
	// Shape check: rounds/log²n must not grow systematically (i.e., the
	// largest instance's ratio stays within 2.5x of the smallest's).
	res.Pass = ratios[len(ratios)-1] <= 2.5*ratios[0]+1
	res.note("rounds/log²n ratio first=%.2f last=%.2f (flat ⇒ polylog scaling holds)", ratios[0], ratios[len(ratios)-1])
	return res, nil
}

// E2 measures routing stretch of the paper's router against the baselines
// (greedy, compass, greedy+face) and against both variants (overlay hulls
// vs full visibility graph).
func E2(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E2",
		Title: "Routing stretch: hull abstraction vs baselines",
		Claim: "Sections 3/4: c-competitive paths (≤17.7 visibility, ≤35.37 overlay Delaunay); greedy fails at holes",
	}
	n := 700
	q := 300
	if opt.Quick {
		n, q = 350, 80
	}
	nw, _, err := preprocessScenario(opt, n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.seed() + 7))
	pairs := samplePairs(rng, nw.G.N(), q)

	type agg struct {
		stretch   []float64
		delivered int
	}
	methods := []string{"hull-router", "visibility-router", "greedy", "compass", "greedy+face", "goafr"}
	out := map[string]*agg{}
	for _, m := range methods {
		out[m] = &agg{}
	}
	for _, p := range pairs {
		s, t := p[0], p[1]
		runs := map[string]routing.Result{
			"greedy":            nw.Router.Greedy(s, t),
			"compass":           nw.Router.Compass(s, t),
			"greedy+face":       nw.Router.GreedyFace(s, t),
			"goafr":             nw.Router.GOAFR(s, t),
			"hull-router":       nw.Route(s, t).Result,
			"visibility-router": nw.RouteVisibility(s, t).Result,
		}
		for m, r := range runs {
			if !r.Reached {
				continue
			}
			out[m].delivered++
			if st, ok := stretchOf(nw.G, pathLen(nw.G, r.Path), s, t); ok {
				out[m].stretch = append(out[m].stretch, st)
			}
		}
	}
	res.Table = stats.NewTable("method", "delivery%", "mean", "p95", "max")
	for _, m := range methods {
		a := out[m]
		s := stats.Summarize(a.stretch)
		res.Table.AddRow(m, fmt.Sprintf("%.1f", 100*float64(a.delivered)/float64(len(pairs))), s.Mean, s.P95, s.Max)
	}
	hull := stats.Summarize(out["hull-router"].stretch)
	visR := stats.Summarize(out["visibility-router"].stretch)
	res.Pass = out["hull-router"].delivered == len(pairs) &&
		out["visibility-router"].delivered == len(pairs) &&
		hull.Max <= 35.37 && visR.Max <= 17.7+1e-9 &&
		out["greedy"].delivered < len(pairs)
	res.note("hull router delivered %d/%d, max stretch %.2f (bound 35.37); visibility max %.2f (bound 17.7); greedy delivered %d/%d",
		out["hull-router"].delivered, len(pairs), hull.Max, visR.Max, out["greedy"].delivered, len(pairs))
	return res, nil
}

// E3 measures per-class storage as n grows at fixed hole geometry
// (Theorem 1.2: hull O(ΣL(c)), boundary O(max P(h)), others O(1)).
func E3(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E3",
		Title: "Storage per node class vs n at fixed hole geometry",
		Claim: "Theorem 1.2: hull-node storage O(ΣL(c)), boundary O(max P(h)), all other nodes O(1) — independent of n",
	}
	// Fixed arena and obstacles; density grows.
	side := 12.0
	obstacles := workload.RandomConvexObstacles(opt.seed(), 3, side, side, 1.3, 2.0, 1.2)
	sizes := []int{400, 800, 1600}
	if opt.Quick {
		sizes = []int{400, 800}
	}
	res.Table = stats.NewTable("n", "hull words", "boundary words", "other words", "#holes", "ΣL(c)", "max P(h)")
	var others, hulls []float64
	for _, n := range sizes {
		sc, err := workload.WithObstacles(opt.seed()+int64(n), n, side, side, 1, obstacles)
		if err != nil {
			return nil, err
		}
		nw, err := core.Preprocess(sc.Build(), core.Config{Strict: true, Seed: 9})
		if err != nil {
			return nil, err
		}
		sumL, maxP := 0.0, 0.0
		for _, h := range nw.Holes.Holes {
			sumL += h.BBoxCircumference()
			if p := h.Perimeter(); p > maxP {
				maxP = p
			}
		}
		res.Table.AddRow(n, nw.Report.StorageHull, nw.Report.StorageBoundary,
			nw.Report.StorageOther, nw.Report.NumHoles, sumL, maxP)
		others = append(others, float64(nw.Report.StorageOther))
		hulls = append(hulls, float64(nw.Report.StorageHull))
	}
	// Other-node storage must stay flat; hull storage must not scale with n.
	res.Pass = others[len(others)-1] <= others[0]+16 &&
		hulls[len(hulls)-1] <= 4*hulls[0]
	res.note("plain-node words across n: %v (flat ⇒ O(1))", others)
	return res, nil
}

// E4 measures convex hull computation rounds on rings of size k
// (Theorem 5.3: O(log k) with Reif–Valiant sorting; O(log² k) with the
// Batcher substitution documented in DESIGN.md).
func E4(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E4",
		Title: "Ring protocol rounds vs ring size k",
		Claim: "Thm 5.3/Lemma 5.2: leader+hypercube O(log k) rounds; full suite O(log² k) with the deterministic Batcher sort",
	}
	sizes := []int{16, 64, 256, 1024}
	if opt.Quick {
		sizes = []int{16, 64, 256}
	}
	res.Table = stats.NewTable("k", "rounds", "rounds/log²k", "hull ok")
	var ratios []float64
	for _, k := range sizes {
		g, cycle := syntheticRing(opt.seed(), k)
		s := sim.New(g, sim.Config{Strict: true})
		results, rounds, err := hyper.RunRings(s, []hyper.RingSpec{{Ring: 0, Cycle: cycle}})
		if err != nil {
			return nil, err
		}
		ok := true
		for _, r := range results[0] {
			if r == nil || r.Size != k || len(r.Hull) != k {
				ok = false
			}
		}
		l2 := log2(float64(k)) * log2(float64(k))
		res.Table.AddRow(k, rounds, float64(rounds)/l2, ok)
		ratios = append(ratios, float64(rounds)/l2)
	}
	res.Pass = ratios[len(ratios)-1] <= 2*ratios[0]+1
	res.note("rounds/log²k first=%.2f last=%.2f", ratios[0], ratios[len(ratios)-1])
	return res, nil
}

// E5 breaks the ring suite's round budget into its phases analytically and
// verifies the measured total matches (Lemma 5.2: doubling O(log k)).
func E5(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E5",
		Title: "Ring suite round budget by phase",
		Claim: "Lemma 5.2: ring→hypercube in O(log k) rounds and O(log k) messages per node",
	}
	sizes := []int{32, 128, 512}
	if opt.Quick {
		sizes = []int{32, 128}
	}
	res.Table = stats.NewTable("k", "doubling", "allreduce", "sort", "merge+bcast", "budget", "measured", "maxMsgs/node")
	res.Pass = true
	for _, k := range sizes {
		g, cycle := syntheticRing(opt.seed()+int64(k), k)
		s := sim.New(g, sim.Config{Strict: true})
		_, rounds, err := hyper.RunRings(s, []hyper.RingSpec{{Ring: 0, Cycle: cycle}})
		if err != nil {
			return nil, err
		}
		d := int(math.Ceil(log2(float64(k))))
		doubling := int(math.Ceil(log2(float64(2*k)))) + 1
		sort := d * (d + 1) / 2
		budget := doubling + d + sort + 2*d + 2
		maxMsgs := s.MaxCounters().Total()
		res.Table.AddRow(k, doubling, d, sort, 2*d, budget, rounds, maxMsgs)
		if rounds > budget {
			res.Pass = false
		}
		// Messages per node: O(1) per round ⇒ O(log² k) total; the doubling
		// prefix alone is O(log k).
		if maxMsgs > 8*budget {
			res.Pass = false
		}
	}
	return res, nil
}

// E6 verifies the bitonic sorting network depth (the deterministic
// alternative the paper cites: O(log² k) compare-exchange steps).
func E6(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E6",
		Title: "Bitonic sort network depth on the emulated hypercube",
		Claim: "Batcher bitonic sort: exactly D(D+1)/2 compare-exchange rounds for 2^D slots",
	}
	res.Table = stats.NewTable("k", "D", "steps D(D+1)/2", "suite rounds upper-bounded")
	res.Pass = true
	for _, k := range []int{8, 33, 100, 1000} {
		d := 0
		for 1<<d < k {
			d++
		}
		steps := d * (d + 1) / 2
		g, cycle := syntheticRing(opt.seed(), min(k, 256))
		s := sim.New(g, sim.Config{Strict: true})
		_, rounds, err := hyper.RunRings(s, []hyper.RingSpec{{Ring: 0, Cycle: cycle}})
		if err != nil {
			return nil, err
		}
		res.Table.AddRow(k, d, steps, rounds)
	}
	return res, nil
}

// E7 measures the dominating set protocol on rings (Section 5.6: constant
// approximation on Δ=2 instances in O(log n) rounds w.h.p.).
func E7(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E7",
		Title: "Dominating set on rings: size and rounds",
		Claim: "Section 5.6: Δ=2 ⇒ O(1)-approximation in O(log n) rounds w.h.p.",
	}
	sizes := []int{30, 120, 480}
	if opt.Quick {
		sizes = []int{30, 120}
	}
	res.Table = stats.NewTable("k", "|DS|", "opt ⌈k/3⌉", "approx", "rounds", "rounds/log k")
	res.Pass = true
	for _, k := range sizes {
		g, cycle := syntheticRing(opt.seed()+int64(k), k)
		s := sim.New(g, sim.Config{Strict: true})
		adj := domset.RingAdj(cycle)
		for v, nbrs := range adj {
			for _, w := range nbrs {
				s.Teach(v, w)
			}
		}
		ds, err := domset.Run(s, adj, uint64(opt.seed()))
		if err != nil {
			return nil, err
		}
		optSize := (k + 2) / 3
		approx := float64(len(ds)) / float64(optSize)
		res.Table.AddRow(k, len(ds), optSize, approx, s.Rounds(), float64(s.Rounds())/log2(float64(k)))
		if approx > 3.0 {
			res.Pass = false
		}
	}
	return res, nil
}

// E8 measures the dynamic scenario (Section 6): initial setup vs per-epoch
// recomputation rounds.
func E8(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E8",
		Title: "Dynamic scenario: initial setup vs recomputation rounds",
		Claim: "Section 6: O(log² n) setup once, then recomputation without the overlay tree per epoch",
	}
	n := 400
	epochs := 5
	if opt.Quick {
		n, epochs = 250, 3
	}
	sc, err := workload.Uniform(opt.seed(), n, math.Sqrt(float64(n))*0.45, math.Sqrt(float64(n))*0.45, 1)
	if err != nil {
		return nil, err
	}
	nw, err := core.Preprocess(sc.Build(), core.Config{Strict: true, Seed: 5})
	if err != nil {
		return nil, err
	}
	res.Table = stats.NewTable("epoch", "rounds", "tree rounds", "routes ok")
	res.Table.AddRow("setup", nw.Report.Rounds.Total, nw.Report.Rounds.Tree, "-")
	mob := workload.NewMobility(sc, opt.seed()+1, 0.08)
	cur := nw
	res.Pass = true
	rng := rand.New(rand.NewSource(opt.seed()))
	for e := 0; e < epochs; e++ {
		sc = mob.Step()
		next, err := cur.Recompute(sc.Build(), core.Config{Strict: true, Seed: 5})
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		ok := true
		for i := 0; i < 10; i++ {
			p := samplePairs(rng, next.G.N(), 1)[0]
			if !next.Route(p[0], p[1]).Reached {
				ok = false
			}
		}
		res.Table.AddRow(e, next.Report.Rounds.Total, next.Report.Rounds.Tree, ok)
		if next.Report.Rounds.Total >= nw.Report.Rounds.Total || !ok {
			res.Pass = false
		}
		cur = next
	}
	return res, nil
}

// E9 measures the abstraction-size chain of Lemmas 4.2/4.4:
// |convex hull| ≤ |locally convex hull| ≤ perimeter nodes, and |hull| = O(L).
func E9(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E9",
		Title: "Hole abstraction sizes: ring vs locally convex hull vs hull",
		Claim: "Lemmas 4.2/4.4: locally convex hull O(area), convex hull O(L) — both independent of n",
	}
	res.Table = stats.NewTable("hole radius", "ring nodes", "locally convex", "hull nodes", "L(c)", "hull/L")
	res.Pass = true
	for _, hr := range []float64{1.2, 1.8, 2.4, 3.0} {
		side := 2*hr + 5
		obstacle := workload.RegularPolygon(geom.Pt(side/2, side/2), hr, 28, 0.13)
		sc, err := workload.JitteredGrid(0.5, side, side, 1, [][]geom.Point{obstacle})
		if err != nil {
			return nil, err
		}
		g := sc.Build()
		ld := delaunay.LDel2Fast(g)
		hs := delaunay.DetectHoles(ld, g.Radius())
		var hole *delaunay.Hole
		for _, h := range hs.Holes {
			if !h.Outer && geom.PointInPolygon(geom.Pt(side/2, side/2), h.Polygon) {
				hole = h
			}
		}
		if hole == nil {
			return nil, fmt.Errorf("E9: hole radius %.1f not detected", hr)
		}
		lch := geom.LocallyConvexHull(hole.Polygon, g.Radius())
		L := hole.BBoxCircumference()
		res.Table.AddRow(fmt.Sprintf("%.1f", hr), len(hole.Ring), len(lch), len(hole.Hull), L, float64(len(hole.Hull))/L)
		if len(hole.Hull) > len(lch) || len(lch) > len(hole.Ring) {
			res.Pass = false
		}
	}
	return res, nil
}

// E10 demonstrates the motivation: greedy fails behind holes while the
// spanner property of LDel² holds (Theorem 2.9), on the adversarial maze.
func E10(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E10",
		Title: "Motivation: greedy failure at a maze wall; LDel² spanner ratio",
		Claim: "§1/Thm 2.9: online greedy fails at radio holes; LDel² is a 1.998-spanner of the UDG",
	}
	sc, err := workload.Maze(opt.seed(), 14, 10, 7, 8.4, 1.2, 1, 900)
	if err != nil {
		return nil, err
	}
	g := sc.Build()
	ld := delaunay.LDel2Fast(g)
	router := routing.New(ld)
	rng := rand.New(rand.NewSource(opt.seed() + 3))

	// Cross-wall pairs: sources left of the wall, targets right.
	var left, right []sim.NodeID
	for v := 0; v < g.N(); v++ {
		p := g.Point(sim.NodeID(v))
		if p.X < 6 {
			left = append(left, sim.NodeID(v))
		}
		if p.X > 8.2 {
			right = append(right, sim.NodeID(v))
		}
	}
	q := 150
	if opt.Quick {
		q = 50
	}
	greedyFail, faceOK := 0, 0
	var hullStretch []float64
	nw, err := core.Preprocess(g, core.Config{Strict: true, Seed: 2})
	if err != nil {
		return nil, err
	}
	for i := 0; i < q; i++ {
		s := left[rng.Intn(len(left))]
		t := right[rng.Intn(len(right))]
		if !router.Greedy(s, t).Reached {
			greedyFail++
		}
		if router.GreedyFace(s, t).Reached {
			faceOK++
		}
		out := nw.Route(s, t)
		if out.Reached {
			if st, ok := stretchOf(g, pathLen(g, out.Path), s, t); ok {
				hullStretch = append(hullStretch, st)
			}
		}
	}
	// Spanner ratio samples.
	var spanner []float64
	for i := 0; i < 60; i++ {
		p := samplePairs(rng, g.N(), 1)[0]
		_, udgD, ok1 := g.ShortestPath(p[0], p[1])
		_, ldD, ok2 := ld.ShortestPath(p[0], p[1])
		if ok1 && ok2 && udgD > 0 {
			spanner = append(spanner, ldD/udgD)
		}
	}
	sSum := stats.Summarize(spanner)
	hSum := stats.Summarize(hullStretch)
	res.Table = stats.NewTable("metric", "value")
	res.Table.AddRow("greedy failure rate (cross-wall)", fmt.Sprintf("%.1f%%", 100*float64(greedyFail)/float64(q)))
	res.Table.AddRow("face-routing delivery", fmt.Sprintf("%.1f%%", 100*float64(faceOK)/float64(q)))
	res.Table.AddRow("hull-router mean stretch", hSum.Mean)
	res.Table.AddRow("hull-router max stretch", hSum.Max)
	res.Table.AddRow("LDel² spanner ratio max", sSum.Max)
	res.Pass = greedyFail > q/2 && sSum.Max <= 1.998+1e-9 && hSum.Max <= 35.37
	res.note("greedy fails on %d/%d cross-wall pairs; spanner max %.3f ≤ 1.998", greedyFail, q, sSum.Max)
	return res, nil
}

// Experiment is one entry of the suite: its ID and the function that runs it.
type Experiment struct {
	ID  string
	Run func(Options) (*Result, error)
}

// Experiments is the suite in run order, including the extension
// experiments E11–E13 (paper §7 future work and the abstraction ablation),
// the batch engine (E15), the fault-injection delivery sweep (E16), the
// loss-aware planning comparison (E17), the traced-query observability demo
// (E18), the churn robustness sweep (E19), the hole-abstraction backend
// comparison (E20), the Byzantine delivery sweep (E22) and the cluster chaos
// sweep (E23).
var Experiments = []Experiment{
	{"E1", E1}, {"E2", E2}, {"E3", E3}, {"E4", E4}, {"E5", E5}, {"E6", E6},
	{"E7", E7}, {"E8", E8}, {"E9", E9}, {"E10", E10}, {"E11", E11},
	{"E12", E12}, {"E13", E13}, {"E14", E14}, {"E15", E15}, {"E16", E16},
	{"E17", E17}, {"E18", E18}, {"E19", E19}, {"E20", E20}, {"E22", E22},
	{"E23", E23},
}

// syntheticRing builds k points on a circle (shuffled IDs) with a UDG
// connecting ring neighbours.
func syntheticRing(seed int64, k int) (*udg.Graph, []sim.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	radius := float64(k) * 0.5 / (2 * math.Pi)
	perm := rng.Perm(k)
	pts := make([]geom.Point, k)
	cycle := make([]sim.NodeID, k)
	for i, id := range perm {
		ang := 2 * math.Pi * float64(i) / float64(k)
		pts[id] = geom.Pt(10+radius*math.Cos(ang), 10+radius*math.Sin(ang))
		cycle[i] = sim.NodeID(id)
	}
	chord := 2 * radius * math.Sin(math.Pi/float64(k))
	return udg.Build(pts, chord*1.2), cycle
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
