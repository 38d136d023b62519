package delaunay

import (
	"sort"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
)

// This file implements the distributed construction of the 2-localized
// Delaunay graph in the style of Li, Călinescu and Wan (the protocol the
// paper invokes in Section 5.1), as an actual message-passing protocol on
// the simulator:
//
//	round 0  every node broadcasts its UDG neighbour list (with positions);
//	         a neighbour's list is its 1-hop ball, so after this exchange
//	         every node knows its full 2-hop neighbourhood — exactly the
//	         witness set Definition 2.2 quantifies over for k = 2;
//	round 1  every node evaluates the k-localized Delaunay property on its
//	         local data and PROPOSES each triangle it believes in to the
//	         two partners (Gabriel edges are decided alone: any blocker of
//	         an edge within range is itself a UDG neighbour);
//	round 2  a triangle is ACCEPTED exactly when all three corners proposed
//	         it, which makes the decision equivalent to emptiness over the
//	         union of the three 2-hop neighbourhoods.
//
// The result provably equals the centralized LDel2Fast(g) and the
// definitional LDel²(V) (each node sees every 2-hop witness that the
// definition quantifies over), which the tests assert; core's pipeline uses this protocol for its phase A–C metering.

// nbrInfo is one neighbour entry carried by the gossip messages.
type nbrInfo struct {
	id sim.NodeID
	pt geom.Point
}

// hopMsg carries adjacency knowledge: hop 1 = my neighbours, hop 2 = my
// 1-hop adjacency map flattened as (owner, neighbour) pairs.
type hopMsg struct {
	hop   int
	pairs [][2]nbrInfo // for hop 1, pairs[i][0] is the sender entry
}

func (m hopMsg) Words() int { return 1 + 6*len(m.pairs) }
func (m hopMsg) CarriedIDs() []sim.NodeID {
	ids := make([]sim.NodeID, 0, 2*len(m.pairs))
	for _, p := range m.pairs {
		ids = append(ids, p[0].id, p[1].id)
	}
	return ids
}

// triMsg proposes a triangle to a partner corner.
type triMsg struct {
	a, b, c sim.NodeID // sorted corner IDs
}

func (m triMsg) Words() int               { return 3 }
func (m triMsg) CarriedIDs() []sim.NodeID { return []sim.NodeID{m.a, m.b, m.c} }

// ldelNode is the per-node protocol state.
type ldelNode struct {
	self     sim.NodeID
	pos      map[sim.NodeID]geom.Point   // known positions (≤ 2 hops)
	adj      map[sim.NodeID][]sim.NodeID // known adjacency (self + 1-hop owners)
	proposed map[[3]sim.NodeID]int       // triangle -> proposals received (incl. own)
	mine     map[[3]sim.NodeID]bool      // triangles this node proposed
	gabriel  [][2]sim.NodeID             // locally decided Gabriel edges
	done     bool
}

// BuildLDel2Distributed runs the protocol on the given simulation and
// returns the resulting planar graph. The simulation's round and message
// counters reflect the real communication cost (O(1) rounds; message sizes
// proportional to neighbourhood sizes).
func BuildLDel2Distributed(s *sim.Sim) (*PlanarGraph, error) {
	g := s.Graph()
	n := g.N()
	nodes := make([]*ldelNode, n)
	for v := 0; v < n; v++ {
		st := &ldelNode{
			self:     sim.NodeID(v),
			pos:      map[sim.NodeID]geom.Point{},
			adj:      map[sim.NodeID][]sim.NodeID{},
			proposed: map[[3]sim.NodeID]int{},
			mine:     map[[3]sim.NodeID]bool{},
		}
		nodes[v] = st
		s.SetProto(sim.NodeID(v), sim.ProtoFunc(func(ctx *sim.Context, round int, inbox []sim.Envelope) {
			st.step(ctx, inbox)
		}))
	}
	if _, err := s.Run(); err != nil {
		return nil, err
	}

	// Assemble accepted triangles and Gabriel edges.
	edgeSet := map[[2]int]bool{}
	add := func(a, b sim.NodeID) {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		edgeSet[[2]int{x, y}] = true
	}
	for _, st := range nodes {
		for _, e := range st.gabriel {
			add(e[0], e[1])
		}
		for tri, count := range st.proposed {
			if count == 3 && st.mine[tri] && st.self == tri[0] {
				add(tri[0], tri[1])
				add(tri[1], tri[2])
				add(tri[0], tri[2])
			}
		}
	}
	edges := make([][2]int, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return NewPlanarGraph(g.Points(), edges), nil
}

func (st *ldelNode) step(ctx *sim.Context, inbox []sim.Envelope) {
	// Ingest deliveries.
	for _, env := range inbox {
		switch msg := env.Msg.(type) {
		case hopMsg:
			for _, p := range msg.pairs {
				owner, nbr := p[0], p[1]
				st.pos[owner.id] = owner.pt
				st.pos[nbr.id] = nbr.pt
				st.adj[owner.id] = appendUnique(st.adj[owner.id], nbr.id)
			}
		case triMsg:
			st.proposed[[3]sim.NodeID{msg.a, msg.b, msg.c}]++
		}
	}

	switch {
	case len(st.adj[st.self]) == 0 && !st.done && len(inbox) == 0:
		// Round 0: broadcast own neighbour list with positions. A
		// neighbour's list is exactly its 1-hop ball, so after one exchange
		// every node knows its full 2-hop neighbourhood — all the witnesses
		// Definition 2.2 quantifies over for k = 2 at this corner (the
		// union over the other corners is covered by their own checks via
		// the unanimity rule).
		me := nbrInfo{id: st.self, pt: ctx.Pos()}
		st.pos[st.self] = ctx.Pos()
		var pairs [][2]nbrInfo
		for _, w := range ctx.Neighbors() {
			pairs = append(pairs, [2]nbrInfo{me, {id: w, pt: ctx.PosOf(w)}})
			st.adj[st.self] = appendUnique(st.adj[st.self], w)
			st.pos[w] = ctx.PosOf(w)
		}
		if len(pairs) == 0 {
			st.done = true
			return
		}
		for _, w := range ctx.Neighbors() {
			ctx.SendAdHoc(w, hopMsg{hop: 1, pairs: pairs})
		}
	case !st.done && st.sawHop(inbox, 1):
		// Round 1: the 2-hop neighbourhood is complete; evaluate the
		// localized Delaunay property and propose triangles. Proposals are
		// tallied as they arrive (round 2) and assembled after quiescence.
		st.done = true
		st.evaluate(ctx)
	}
}

func (st *ldelNode) sawHop(inbox []sim.Envelope, hop int) bool {
	for _, env := range inbox {
		if m, ok := env.Msg.(hopMsg); ok && m.hop == hop {
			return true
		}
	}
	return false
}

// evaluate applies Definitions 2.2/2.3 with the gathered 2-hop data: Gabriel
// edges are decided alone (any blocker is a UDG neighbour); candidate
// triangles are proposed to both partners and accepted on unanimity.
func (st *ldelNode) evaluate(ctx *sim.Context) {
	self := st.self
	pSelf := st.pos[self]
	nbrs := st.adj[self]

	// Gabriel edges (processed from the smaller endpoint to count once).
	for _, w := range nbrs {
		pw := st.pos[w]
		blocked := false
		for _, x := range nbrs {
			if x == w {
				continue
			}
			if geom.InDiametralCircle(pSelf, pw, st.pos[x]) {
				blocked = true
				break
			}
		}
		if !blocked {
			st.gabriel = append(st.gabriel, [2]sim.NodeID{self, w})
		}
	}

	// Candidate triangles: both partners are my UDG neighbours and within
	// range of each other; the circumcircle must be empty of every node I
	// know within 2 hops of me (each corner checks its own 2-hop set, so
	// unanimity covers the union the definition quantifies over).
	radius := ctx.Radius()
	rr := radius * radius
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			v, w := nbrs[i], nbrs[j]
			pv, pw := st.pos[v], st.pos[w]
			if pv.Dist2(pw) > rr {
				continue
			}
			if geom.Orient(pSelf, pv, pw) == geom.Collinear {
				continue
			}
			if !st.circumcircleEmpty(pSelf, pv, pw) {
				continue
			}
			tri := sortTriple(self, v, w)
			st.mine[tri] = true
			st.proposed[tri]++ // own vote
			ctx.SendAdHoc(v, triMsg{a: tri[0], b: tri[1], c: tri[2]})
			ctx.SendAdHoc(w, triMsg{a: tri[0], b: tri[1], c: tri[2]})
		}
	}
}

// circumcircleEmpty checks all locally known nodes (the 2-hop neighbourhood)
// against the circumcircle.
func (st *ldelNode) circumcircleEmpty(a, b, c geom.Point) bool {
	for id, p := range st.pos {
		_ = id
		if p.Eq(a) || p.Eq(b) || p.Eq(c) {
			continue
		}
		if geom.InCircle(a, b, c, p) {
			return false
		}
	}
	return true
}

func sortTriple(a, b, c sim.NodeID) [3]sim.NodeID {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]sim.NodeID{a, b, c}
}

func appendUnique(xs []sim.NodeID, v sim.NodeID) []sim.NodeID {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}
