package expt

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"hybridroute/internal/core"
	"hybridroute/internal/sim"
	"hybridroute/internal/stats"
	"hybridroute/internal/trace"
)

// e19Row is one sweep point of E19: a seeded churn schedule with `crashes`
// crash/recover pairs replayed while a batch of queries is in flight.
type e19Row struct {
	label   string
	crashes int
}

// e19Outcome is everything one E19 row produced: the traced per-query
// reports, the raw event stream and the network the row ran on (for its
// repair statistics and topology generation).
type e19Outcome struct {
	reports []*core.TraceReport
	events  []trace.Event
	nw      *core.Network
}

// e19Run routes the shared query batch on a fresh network with the given
// churn schedule installed (crashes <= 0 leaves the fault model out
// entirely) and the full tracer on, via TraceBatch so every query of the
// batch is traced — not just a sample.
func e19Run(opt Options, n int, pairs [][2]sim.NodeID, schedule sim.ChurnSchedule) (*e19Outcome, error) {
	nw, _, err := preprocessScenario(opt, n)
	if err != nil {
		return nil, err
	}
	tr := trace.New(0)
	nw.SetTracer(tr)
	if len(schedule.Events) > 0 {
		cfg := sim.FaultConfig{Seed: uint64(opt.seed()) + 19, Churn: schedule}
		if err := nw.Sim.SetFaults(cfg); err != nil {
			return nil, err
		}
	}
	queries := make([]core.Query, len(pairs))
	for i, p := range pairs {
		queries[i] = core.Query{S: p[0], T: p[1]}
	}
	reports, err := nw.TraceBatch(queries, core.TransportOptions{PayloadWords: 32})
	if err != nil {
		return nil, err
	}
	return &e19Outcome{reports: reports, events: tr.Events(), nw: nw}, nil
}

// traceReportsEqual compares every observable of two trace reports,
// including the full per-hop detail — the byte-identity check for the
// churn-disabled row.
func traceReportsEqual(a, b *core.TraceReport) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.S != b.S || a.T != b.T || a.Delivered != b.Delivered || a.Rounds != b.Rounds ||
		a.Retransmits != b.Retransmits || a.HopRetrans != b.HopRetrans ||
		a.Replans != b.Replans || a.Nacks != b.Nacks || a.Err != b.Err ||
		a.TraversedLength != b.TraversedLength || a.CompetitiveRatio != b.CompetitiveRatio ||
		a.Verified != b.Verified || a.E2EResends != b.E2EResends ||
		a.VerifyFails != b.VerifyFails || a.MisrouteDetected != b.MisrouteDetected ||
		len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// e19Silent counts misrouted-plan silent failures: queries the transport
// reports as delivered whose trace shows the payload never actually reached
// the target. Under the reliable protocol that means an acked hop into T;
// under the ack-free lossless transport any launched hop into T counts.
func e19Silent(reports []*core.TraceReport) int {
	silent := 0
	for _, r := range reports {
		if r == nil || !r.Delivered {
			continue
		}
		if r.S == r.T {
			continue // answered locally, no hops by design
		}
		anyAcks := false
		for _, h := range r.Hops {
			if h.Acked {
				anyAcks = true
				break
			}
		}
		reached := false
		for _, h := range r.Hops {
			if h.To == r.T && (h.Acked || !anyAcks) {
				reached = true
				break
			}
		}
		if !reached {
			silent++
		}
	}
	return silent
}

// e19Artifacts writes the sweep summary plus the heaviest row's folded
// metrics and raw membership events as E19_churn.json.
func e19Artifacts(dir string, rowsOut []map[string]interface{}, heavy *e19Outcome) error {
	reg := trace.NewRegistry()
	reg.MergeEvents(heavy.events)
	var membership []trace.Event
	for _, ev := range heavy.events {
		switch ev.Kind {
		case trace.KindCrash, trace.KindRecover, trace.KindSuspect, trace.KindRepair:
			membership = append(membership, ev)
		}
	}
	blob, err := json.MarshalIndent(struct {
		Rows       []map[string]interface{} `json:"rows"`
		Metrics    *trace.Registry          `json:"metrics"`
		Membership []trace.Event            `json:"membership_events"`
	}{rowsOut, reg, membership}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "E19_churn.json"), append(blob, '\n'), 0o644)
}

// E19 measures routing under churn: a seeded schedule crashes and recovers
// nodes while a traced query batch is in flight, exercising the full
// robustness stack — topology repair on every membership change,
// plan-cache invalidation through the topology generation, and suspect-based
// failover for queries already past planning when a crash lands. The sweep
// reports query survival and competitive ratio against the churn intensity.
// The churn-0 row must be byte-identical (per-hop) to a run on a network
// that never had a fault config installed, delivery of deliverable queries
// (endpoints are protected from the schedule) must stay >= 90% on every
// row, and no delivered query may be a misrouted-plan silent failure. With
// Options.TraceDir set, the sweep and the heaviest row's membership events
// are written out as E19_churn.json.
func E19(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E19",
		Title: "Churn: delivery and competitive ratio under crash/recovery",
		Claim: "topology repair + topology-generation cache invalidation + suspect failover sustain >= 90% delivery of endpoint-safe queries under mid-batch churn, with zero misrouted-plan silent failures; churn 0 is byte-identical to a never-faulted network",
	}
	n, q := 420, 48
	crashCounts := []int{2, 4, 8}
	if opt.Quick {
		n, q = 240, 20
		crashCounts = []int{1, 2, 4}
	}
	if opt.Churn > 0 {
		crashCounts = append(crashCounts, opt.Churn)
	}

	// Learn the node count, then draw the query set all rows share. Every
	// endpoint is protected from the churn schedule so each row answers the
	// same deliverable pairs.
	nw0, _, err := preprocessScenario(opt, n)
	if err != nil {
		return nil, err
	}
	nodes := nw0.G.N()
	rng := rand.New(rand.NewSource(opt.seed() + 19))
	pairs := samplePairs(rng, nodes, q)
	protect := make([]sim.NodeID, 0, 2*len(pairs))
	for _, p := range pairs {
		protect = append(protect, p[0], p[1])
	}

	// Baseline: the batch on a network that never saw a fault config.
	base, err := e19Run(opt, n, pairs, sim.ChurnSchedule{})
	if err != nil {
		return nil, err
	}

	rows := []e19Row{{"churn 0", 0}}
	for _, c := range crashCounts {
		rows = append(rows, e19Row{fmt.Sprintf("churn %d×(crash+recover)", c), c})
	}
	res.Table = stats.NewTable("churn", "delivered", "rate", "mean ratio", "mean rounds", "crashes", "repairs", "suspects", "replans")

	// Horizon spreads the crashes across the batch; the dwell keeps each
	// victim down long enough for repair and failover to matter but short
	// enough that every recovery (and restore repair) also lands in-run.
	horizon, dwell := q*10, 30

	churnOK, identical := true, true
	silentTotal := 0
	var heavy *e19Outcome
	var rowsOut []map[string]interface{}
	for _, row := range rows {
		var out *e19Outcome
		if row.crashes == 0 {
			// Reuse the baseline run as the churn-0 row: installing a zero-
			// event schedule is defined to leave the fault model out, so the
			// row *is* the never-faulted configuration.
			out = base
		} else {
			schedule := sim.GenerateChurn(uint64(opt.seed())+19, nodes, horizon, row.crashes, dwell, protect)
			out, err = e19Run(opt, n, pairs, schedule)
			if err != nil {
				return nil, err
			}
			heavy = out
		}

		delivered, replans := 0, 0
		var ratioSum, roundSum float64
		ratioN := 0
		for _, r := range out.reports {
			if r == nil || !r.Delivered {
				continue
			}
			delivered++
			replans += r.Replans
			roundSum += float64(r.Rounds)
			if r.CompetitiveRatio > 0 {
				ratioSum += r.CompetitiveRatio
				ratioN++
			}
		}
		crashes, repairs, suspects := 0, 0, 0
		for _, ev := range out.events {
			switch ev.Kind {
			case trace.KindCrash:
				crashes++
			case trace.KindRepair:
				repairs++
			case trace.KindSuspect:
				suspects++
			}
		}
		rate := float64(delivered) / float64(len(pairs))
		res.Table.AddRow(row.label, fmt.Sprintf("%d/%d", delivered, len(pairs)),
			fmt.Sprintf("%.3f", rate),
			fmt.Sprintf("%.3f", ratioSum/float64(max(ratioN, 1))),
			fmt.Sprintf("%.1f", roundSum/float64(max(delivered, 1))),
			crashes, repairs, suspects, replans)
		rowsOut = append(rowsOut, map[string]interface{}{
			"churn": row.crashes, "delivered": delivered, "queries": len(pairs),
			"rate": rate, "mean_ratio": ratioSum / float64(max(ratioN, 1)),
			"crashes": crashes, "repairs": repairs, "suspects": suspects, "replans": replans,
		})

		silentTotal += e19Silent(out.reports)
		if rate < 0.9 {
			churnOK = false
		}
		if row.crashes == 0 {
			for i := range out.reports {
				if !traceReportsEqual(base.reports[i], out.reports[i]) {
					identical = false
					break
				}
			}
		}
	}

	// The heaviest row must have genuinely exercised the stack: schedule
	// events fired, the topology generation moved, and repairs ran.
	exercised := heavy != nil && heavy.nw.TopoGeneration() > 0 && heavy.nw.RepairReport().Repairs > 0
	rep := core.RepairStats{}
	if heavy != nil {
		rep = heavy.nw.RepairReport()
	}

	res.note("churn-0 row byte-identical (per-hop) to a never-faulted network: %v", identical)
	res.note("misrouted-plan silent failures across all rows: %d", silentTotal)
	res.note("heaviest row: topology generation %d; repairs %d (%d restores)",
		func() uint64 {
			if heavy == nil {
				return 0
			}
			return heavy.nw.TopoGeneration()
		}(), rep.Repairs, rep.Restores)
	res.Pass = identical && churnOK && silentTotal == 0 && exercised

	if opt.TraceDir != "" && heavy != nil {
		if err := e19Artifacts(opt.TraceDir, rowsOut, heavy); err != nil {
			return nil, fmt.Errorf("e19: artifacts: %w", err)
		}
		res.note("churn artifacts written to %s", opt.TraceDir)
	}
	return res, nil
}
