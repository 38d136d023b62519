package expt

import (
	"fmt"

	"hybridroute/internal/core"
	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/stats"
	"hybridroute/internal/workload"
)

// e17Row is one sweep point of E17: a base loss rate applied everywhere and
// an amplified rate inside the lossy region on the direct corridor.
type e17Row struct {
	base   float64
	region float64
}

// e17Region places the interference zone on the direct corridor between the
// query endpoints.
func e17Region(w, h, loss float64) sim.LossRegion {
	return sim.LossRegion{Center: geom.Pt(w/2, h/2), Radius: 1.8, AdHocLoss: loss}
}

// e17Scenario builds the corridor deployment: an elongated jittered grid with
// east-west queries whose straight-line routes cross the mid-field region.
func e17Scenario(seed int64, quick bool) (*core.Network, float64, float64, error) {
	w, h := 15.0, 7.0
	if quick {
		w, h = 10.0, 6.0
	}
	sc, err := workload.JitteredGrid(0.55, w, h, 1, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	nw, err := core.Preprocess(sc.Build(), core.Config{Strict: true, Seed: uint64(seed)})
	if err != nil {
		return nil, 0, 0, err
	}
	return nw, w, h, nil
}

// e17Pairs picks east-west endpoint pairs around the midline so every direct
// route crosses the lossy region.
func e17Pairs(nw *core.Network, w, h float64, q int) [][2]sim.NodeID {
	nearest := func(p geom.Point) sim.NodeID {
		best, bestD := sim.NodeID(0), -1.0
		for v := 0; v < nw.G.N(); v++ {
			if d := nw.G.Point(sim.NodeID(v)).Dist(p); bestD < 0 || d < bestD {
				best, bestD = sim.NodeID(v), d
			}
		}
		return best
	}
	pairs := make([][2]sim.NodeID, 0, q)
	for i := 0; i < q; i++ {
		// Spread the lanes across the region's vertical extent.
		y := h/2 + (float64(i)/float64(max(q-1, 1))-0.5)*2.0
		s := nearest(geom.Pt(0.3, y))
		t := nearest(geom.Pt(w-0.3, y))
		if s != t {
			pairs = append(pairs, [2]sim.NodeID{s, t})
		}
	}
	return pairs
}

// e17Totals aggregates one mode's measured pass.
type e17Totals struct {
	delivered, retrans, rounds, detours int
	reps                                []*core.TransportReport
}

// e17Run answers all pairs on a fresh network under one fault row with one
// planning mode: warmupPasses un-measured passes feed the link-quality
// estimator (the retry-through baseline records the same telemetry but never
// consults it), then one measured pass is reported. Both arms run without the
// liveness table: its suspect failover would divert the retry-through arm
// around the lossy region too, so that arm would no longer retry through and
// the sweep would stop comparing the two policies its claim names.
func e17Run(opt Options, row e17Row, mode core.LossAwareMode, warmupPasses int) (*e17Totals, error) {
	nw, w, h, err := e17Scenario(opt.seed(), opt.Quick)
	if err != nil {
		return nil, err
	}
	nw.Live = nil
	cfg := sim.FaultConfig{
		AdHocLoss: row.base,
		LongLoss:  row.base,
		Seed:      uint64(opt.seed()) + 17,
	}
	if row.region > 0 {
		cfg.LossRegions = []sim.LossRegion{e17Region(w, h, row.region)}
	}
	if err := nw.Sim.SetFaults(cfg); err != nil {
		return nil, err
	}
	q := 10
	if opt.Quick {
		q = 6
	}
	pairs := e17Pairs(nw, w, h, q)
	topt := core.TransportOptions{PayloadWords: 32, LossAware: mode}
	for pass := 0; pass < warmupPasses; pass++ {
		for _, p := range pairs {
			// Failed warmup queries still feed the estimator.
			nw.RouteOnSimOpt(p[0], p[1], topt) //nolint:errcheck
		}
	}
	tot := &e17Totals{}
	for _, p := range pairs {
		rep, err := nw.RouteOnSimOpt(p[0], p[1], topt)
		if err != nil {
			tot.reps = append(tot.reps, nil)
			continue
		}
		tot.reps = append(tot.reps, rep)
		if rep.DeliveredSim {
			tot.delivered++
		}
		tot.retrans += rep.Retransmits
		tot.rounds += rep.Rounds
		tot.detours += rep.Detours
	}
	return tot, nil
}

// E17 compares retry-through (PR 2's reliable transport with geometric plans)
// against loss-aware plan-around (ETX-weighted planning from observed link
// quality) on a lossy-region corridor: the sweep raises a base loss rate
// everywhere and an amplified rate inside a mid-field interference zone the
// direct routes cross. Loss-aware planning must deliver everything with
// strictly fewer retransmissions and rounds once base loss reaches 2%, while
// the zero-loss row stays byte-identical between the modes.
func E17(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E17",
		Title: "Loss-aware planning vs retry-through on a lossy region",
		Claim: "ETX detours learned from ack telemetry deliver 100% with strictly fewer retransmits and rounds than retrying through the region at >= 2% base loss; the zero-loss row is byte-identical across modes",
	}
	warmup := 3
	rows := []e17Row{
		{base: 0},
		{base: 0.01},
		{base: 0.02},
		{base: 0.05},
	}
	for i := range rows {
		if rows[i].base > 0 {
			rows[i].region = rows[i].base * 15
			if rows[i].region > 0.45 {
				rows[i].region = 0.45
			}
		}
	}
	res.Table = stats.NewTable("base loss", "region loss", "mode", "delivered", "retransmits", "rounds", "detours")

	pass := true
	zeroIdentical := true
	for _, row := range rows {
		through, err := e17Run(opt, row, core.LossAwareOff, warmup)
		if err != nil {
			return nil, err
		}
		around, err := e17Run(opt, row, core.LossAwareOn, warmup)
		if err != nil {
			return nil, err
		}
		n := len(through.reps)
		for _, m := range []struct {
			label string
			t     *e17Totals
		}{{"retry-through", through}, {"plan-around", around}} {
			res.Table.AddRow(
				fmt.Sprintf("%.0f%%", row.base*100),
				fmt.Sprintf("%.0f%%", row.region*100),
				m.label,
				fmt.Sprintf("%d/%d", m.t.delivered, n),
				m.t.retrans, m.t.rounds, m.t.detours)
		}
		if row.base == 0 {
			// No faults installed: both modes must run the identical default
			// transport, byte for byte.
			for i := range through.reps {
				a, b := through.reps[i], around.reps[i]
				if (a == nil) != (b == nil) || (a != nil && !transportReportsEqual(a, b)) {
					zeroIdentical = false
				}
			}
			if around.detours != 0 {
				zeroIdentical = false
			}
			continue
		}
		if row.base >= 0.02 {
			if around.delivered != n {
				res.note("base %.0f%%: plan-around delivered %d/%d", row.base*100, around.delivered, n)
				pass = false
			}
			if around.retrans >= through.retrans {
				res.note("base %.0f%%: plan-around retransmits %d not below retry-through %d", row.base*100, around.retrans, through.retrans)
				pass = false
			}
			if around.rounds >= through.rounds {
				res.note("base %.0f%%: plan-around rounds %d not below retry-through %d", row.base*100, around.rounds, through.rounds)
				pass = false
			}
			if around.detours == 0 {
				res.note("base %.0f%%: plan-around never detoured", row.base*100)
				pass = false
			}
		}
	}
	res.note("zero-loss row byte-identical across planning modes: %v", zeroIdentical)
	res.Pass = pass && zeroIdentical
	return res, nil
}
