// Static (simulator-free) preprocessing for the million-node regime. The
// distributed pipeline of Preprocess is faithful to the paper — every phase
// runs as real protocol messages — but the simulator allocates per-node
// knowledge state that makes n=10⁶ infeasible in one process.
// PreprocessStatic builds the identical routing state centrally:
//
//   - LDel² via the grid-accelerated LDel2Fast (provably equal to the
//     distributed construction's output, both pinned by tests),
//   - the router, the holes, the hole abstraction, visibility domains, bays
//     and storage accounting exactly as Preprocess does (setLDel runs the
//     router and hole detection side by side, then buildDerived),
//   - a synthetic balanced overlay tree in place of phase J (the query path
//     never reads the tree; only storage accounting does),
//
// and skips the phases that only measure communication (rings, flood,
// dominating sets — Bay.DS is never read on the query path). Routing
// outcomes are byte-identical to a Preprocess-built network on the same
// deployment, pinned by the golden digest test.

package core

import (
	"errors"
	"fmt"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/overlaytree"
	"hybridroute/internal/udg"
)

// ErrNoSimulator is the error of the on-simulator entry points (RouteOnSim,
// TraceQuery, TraceBatch and their options and engine variants) on a network
// built by PreprocessStatic, which has no simulator to run the query on. The
// report they return still carries the plan outcome.
var ErrNoSimulator = errors.New("core: network has no simulator (built by PreprocessStatic)")

// PreprocessStatic builds a query-ready Network without a simulator.
// Config fields other than Abstraction are ignored (there is no
// communication to make strict, parallel, or seeded). The returned network
// answers Route/Engine queries exactly like a Preprocess-built one;
// simulator-bound features (RouteOnSim transports, churn schedules and the
// repair that answers them, the liveness table, round/message accounting)
// are unavailable — nw.Sim and nw.Live are nil.
func PreprocessStatic(g *udg.Graph, cfg Config) (*Network, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("core: empty deployment")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("core: UDG is disconnected; the paper assumes strong connectivity")
	}
	nw := &Network{G: g}
	nw.Link = NewLinkStats(0)

	nw.setLDel(delaunay.LDel2Fast(g))
	nw.Report.NumHoles = len(nw.Holes.Holes)
	nw.Report.HullsIntersect = nw.Holes.HullsIntersect()

	nw.Tree = overlaytree.Synthetic(g.N())
	nw.Report.TreeHeight = nw.Tree.Height()

	if err := nw.buildDerived(cfg.Abstraction); err != nil {
		return nil, err
	}
	nw.accountStorage()
	return nw, nil
}
