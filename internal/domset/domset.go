// Package domset implements dominating set computation for the bay-area
// routing of Section 4.4/5.6. The paper invokes the distributed algorithm of
// Jia, Rajaraman and Suel, which computes an O(log Δ)-approximate dominating
// set in O(log n · log Δ) rounds w.h.p.; on the hole rings of a bay area the
// degree is Δ = 2, so the approximation is a constant. This package provides
//
//   - Run: a distributed span-based randomized-greedy protocol in the style
//     of Jia et al. over an arbitrary virtual graph (vertices are simulator
//     nodes, edges connect nodes that know each other's IDs), phase-
//     synchronized in 5-round phases, terminating when every vertex is
//     dominated;
//   - path and ring helpers plus verification used by the routing layer and
//     the experiments.
package domset

import (
	"fmt"

	"hybridroute/internal/sim"
)

// statusMsg broadcasts the sender's coverage and membership (phase step 0).
type statusMsg struct {
	covered bool
	inDS    bool
}

func (statusMsg) Words() int { return 3 }

// spanMsg broadcasts the sender's span: how many vertices of its closed
// neighbourhood are still uncovered (phase step 1).
type spanMsg struct{ span int }

func (spanMsg) Words() int { return 2 }

// maxMsg broadcasts the maximum span in the sender's closed neighbourhood
// (phase step 2).
type maxMsg struct{ max int }

func (maxMsg) Words() int { return 2 }

// candMsg broadcasts the sender's candidacy (phase step 3).
type candMsg struct{ candidate bool }

func (candMsg) Words() int { return 2 }

// joinMsg announces that the sender joined the dominating set (phase step 4).
type joinMsg struct{}

func (joinMsg) Words() int { return 1 }

const phaseLen = 6

type dsNode struct {
	self sim.NodeID
	nbrs []sim.NodeID
	seed uint64

	inDS        bool
	nbrCovered  map[sim.NodeID]bool
	nbrInDS     map[sim.NodeID]bool
	spans       map[sim.NodeID]int
	maxes       map[sim.NodeID]int
	cands       map[sim.NodeID]bool
	mySpan      int
	myMax       int
	myCand      bool
	phase       int
	statusPhase int // last phase in which this node sent its status
	startRound  int // simulator round at which the protocol began
}

func (st *dsNode) selfCovered() bool {
	if st.inDS {
		return true
	}
	for _, w := range st.nbrs {
		if st.nbrInDS[w] {
			return true
		}
	}
	return false
}

// active reports whether any vertex of the closed neighbourhood is still
// uncovered (by cached knowledge); inactive nodes stop sending, which lets
// the simulation quiesce exactly when the whole graph is dominated.
func (st *dsNode) active() bool {
	if !st.selfCovered() {
		return true
	}
	for _, w := range st.nbrs {
		if !st.nbrCovered[w] {
			return true
		}
	}
	return false
}

func (st *dsNode) step(ctx *sim.Context, round int, inbox []sim.Envelope) {
	// An isolated vertex can only dominate itself; no communication needed.
	if len(st.nbrs) == 0 {
		st.inDS = true
		return
	}
	if st.startRound < 0 {
		st.startRound = round
	}
	round -= st.startRound // phase schedule is relative to protocol start
	// Deliveries first: caches are monotone, so stale entries are harmless.
	curPhase := round / phaseLen
	var statusSenders []sim.NodeID
	for _, env := range inbox {
		switch msg := env.Msg.(type) {
		case statusMsg:
			st.nbrCovered[env.From] = msg.covered
			if msg.inDS {
				st.nbrInDS[env.From] = true
			}
			statusSenders = append(statusSenders, env.From)
		case spanMsg:
			st.spans[env.From] = msg.span
		case maxMsg:
			st.maxes[env.From] = msg.max
		case candMsg:
			st.cands[env.From] = msg.candidate
		case joinMsg:
			st.nbrInDS[env.From] = true
			st.nbrCovered[env.From] = true
		}
	}

	if !st.active() {
		// A dominated node with a fully dominated neighbourhood no longer
		// initiates phases, but it must still answer status queries once per
		// phase so active neighbours observe its (monotone) coverage;
		// otherwise they would query forever.
		if len(statusSenders) > 0 && st.statusPhase != curPhase {
			st.statusPhase = curPhase
			me := statusMsg{covered: st.selfCovered(), inDS: st.inDS}
			for _, w := range statusSenders {
				ctx.SendLong(w, me)
			}
		}
		return
	}

	switch round % phaseLen {
	case 0:
		st.phase = curPhase
		st.statusPhase = curPhase
		st.spans = map[sim.NodeID]int{}
		st.maxes = map[sim.NodeID]int{}
		st.cands = map[sim.NodeID]bool{}
		st.broadcast(ctx, statusMsg{covered: st.selfCovered(), inDS: st.inDS})
	case 2: // statuses from both active (step 1) and passive (step 2) nodes are in
		st.mySpan = 0
		if !st.selfCovered() {
			st.mySpan++
		}
		for _, w := range st.nbrs {
			if !st.nbrCovered[w] {
				st.mySpan++
			}
		}
		st.broadcast(ctx, spanMsg{span: st.mySpan})
	case 3:
		st.myMax = st.mySpan
		for _, sp := range st.spans {
			if sp > st.myMax {
				st.myMax = sp
			}
		}
		st.broadcast(ctx, maxMsg{max: st.myMax})
	case 4:
		m2 := st.myMax
		for _, m := range st.maxes {
			if m > m2 {
				m2 = m
			}
		}
		st.myCand = st.mySpan > 0 && 2*st.mySpan >= m2
		st.broadcast(ctx, candMsg{candidate: st.myCand})
	case 5:
		if !st.myCand {
			return
		}
		competitors := 1
		for _, w := range st.nbrs {
			if st.cands[w] {
				competitors++
			}
		}
		if uniform(st.seed, uint64(st.phase)) < 1/float64(competitors) {
			st.inDS = true
			st.broadcast(ctx, joinMsg{})
		}
	}
}

func (st *dsNode) broadcast(ctx *sim.Context, msg sim.Message) {
	for _, w := range st.nbrs {
		ctx.SendLong(w, msg)
	}
}

// Run computes a dominating set of the virtual graph adj (must be symmetric;
// vertices are the keys) on the given simulation. Every edge must connect
// nodes that know each other's IDs when the sim is strict. The rngSeed makes
// the randomized join decisions reproducible. Rounds accumulate on the sim's
// round counter.
func Run(s *sim.Sim, adj map[sim.NodeID][]sim.NodeID, rngSeed uint64) (map[sim.NodeID]bool, error) {
	if len(adj) == 0 {
		return map[sim.NodeID]bool{}, nil
	}
	nodes := make(map[sim.NodeID]*dsNode, len(adj))
	for v, nbrs := range adj {
		st := &dsNode{
			self:       v,
			nbrs:       append([]sim.NodeID(nil), nbrs...),
			seed:       mix(rngSeed, uint64(v)),
			nbrCovered: map[sim.NodeID]bool{},
			nbrInDS:    map[sim.NodeID]bool{},
			spans:      map[sim.NodeID]int{},
			maxes:      map[sim.NodeID]int{},
			cands:      map[sim.NodeID]bool{},
			startRound: -1,
		}
		nodes[v] = st
		s.SetProto(v, sim.ProtoFunc(func(ctx *sim.Context, round int, inbox []sim.Envelope) {
			st.step(ctx, round, inbox)
		}))
	}
	if _, err := s.Run(); err != nil {
		return nil, err
	}
	ds := map[sim.NodeID]bool{}
	for v, st := range nodes {
		if st.inDS {
			ds[v] = true
		}
	}
	if !IsDominatingSet(adj, ds) {
		return nil, fmt.Errorf("domset: protocol terminated without dominating all vertices")
	}
	return ds, nil
}

// IsDominatingSet reports whether ds dominates every vertex of adj: each
// vertex is in ds or adjacent to a member.
func IsDominatingSet(adj map[sim.NodeID][]sim.NodeID, ds map[sim.NodeID]bool) bool {
	for v, nbrs := range adj {
		if ds[v] {
			continue
		}
		ok := false
		for _, w := range nbrs {
			if ds[w] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// PathAdj builds the adjacency map of a path over the given node sequence.
func PathAdj(seq []sim.NodeID) map[sim.NodeID][]sim.NodeID {
	adj := map[sim.NodeID][]sim.NodeID{}
	for i, v := range seq {
		if i > 0 {
			adj[v] = append(adj[v], seq[i-1])
		}
		if i < len(seq)-1 {
			adj[v] = append(adj[v], seq[i+1])
		}
		if len(seq) == 1 {
			adj[v] = nil
		}
	}
	return adj
}

// RingAdj builds the adjacency map of a cycle over the given node sequence.
func RingAdj(seq []sim.NodeID) map[sim.NodeID][]sim.NodeID {
	adj := map[sim.NodeID][]sim.NodeID{}
	k := len(seq)
	if k == 1 {
		adj[seq[0]] = nil
		return adj
	}
	for i, v := range seq {
		adj[v] = append(adj[v], seq[(i-1+k)%k], seq[(i+1)%k])
	}
	return adj
}

// mix and uniform implement a splitmix64-style deterministic PRNG so the
// protocol needs no shared random source.
func mix(a, b uint64) uint64 {
	x := a ^ (b * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func uniform(seed, n uint64) float64 {
	return float64(mix(seed, n)>>11) / float64(1<<53)
}
