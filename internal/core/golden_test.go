package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
	"hybridroute/internal/workload"
)

// goldenHullDigest pins the hull backend's routing output to the exact
// behavior of the pre-abstraction implementation: the digest below was
// computed on the seed tree before the HoleAbstraction refactor, and the
// default (hull) backend must keep reproducing it byte for byte.
const goldenHullDigest = "ca5a5a3feb8bb502"

// goldenScenario is a fixed deployment with two separated holes (a star, so
// bay areas exist, and a polygon) — it exercises cases 1–5 plus overlay
// waypoint planning between holes.
func goldenScenario(t testing.TB) *Network {
	t.Helper()
	obstacles := [][]geom.Point{
		workload.StarPolygon(geom.Pt(3, 3.2), 1.6, 0.7, 5, 0.3),
		workload.RegularPolygon(geom.Pt(7.4, 6.8), 1.3, 6, 0.2),
	}
	sc, err := workload.JitteredGrid(0.55, 10, 10, 1, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Preprocess(sc.Build(), Config{Strict: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// routeDigest hashes every observable field of a deterministic batch of
// routing outcomes: case, path, waypoints and flags.
func routeDigest(nw *Network) string {
	h := fnv.New64a()
	mix := func(xs ...int) {
		var buf [8]byte
		for _, x := range xs {
			for i := range buf {
				buf[i] = byte(x >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	n := nw.G.N()
	step := n/40 + 1
	for s := 0; s < n; s += step {
		for t := 0; t < n; t += step {
			out := nw.Route(sim.NodeID(s), sim.NodeID(t))
			flags := 0
			if out.Reached {
				flags |= 1
			}
			if out.Fallback {
				flags |= 2
			}
			if out.PlanFallback {
				flags |= 4
			}
			if out.HoleHit {
				flags |= 8
			}
			mix(s, t, out.Case, flags, len(out.Path), len(out.Waypoints))
			for _, v := range out.Path {
				mix(int(v))
			}
			for _, v := range out.Waypoints {
				mix(int(v))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenAdversarialDigest pins the reliable transport under Byzantine
// adversaries: verified delivery, relaunches, misroute detection and the
// liveness table learning across the batch.
const goldenAdversarialDigest = "a75f304ef2e83a3f"

// adversarialDigest routes 24 seeded pairs in order through the reliable
// transport on the golden scenario with 30% of the non-endpoint nodes
// adversarial, and hashes every observable field of each report. It also
// returns the batch's relaunch, misroute-detection and failure totals, so the
// test can check the digest covers a batch that exercised the tier.
func adversarialDigest(t testing.TB) (digest string, resends, misroutes, failed int) {
	nw := goldenScenario(t)
	rng := rand.New(rand.NewSource(22))
	var pairs [][2]sim.NodeID
	var exempt []sim.NodeID
	for len(pairs) < 24 {
		s, d := sim.NodeID(rng.Intn(nw.G.N())), sim.NodeID(rng.Intn(nw.G.N()))
		if s != d {
			pairs = append(pairs, [2]sim.NodeID{s, d})
			exempt = append(exempt, s, d)
		}
	}
	cfg := sim.FaultConfig{Seed: 22, Adversary: sim.AdversaryConfig{Fraction: 0.3, Exempt: exempt}}
	if err := nw.Sim.SetFaults(cfg); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, p := range pairs {
		rep, err := nw.RouteOnSimOpt(p[0], p[1], TransportOptions{PayloadWords: 32})
		errText := ""
		if err != nil {
			errText = err.Error()
			failed++
		}
		resends += rep.E2EResends
		misroutes += rep.MisrouteDetected
		fmt.Fprintf(h, "%d>%d path=%v delivered=%v verified=%v rounds=%d msgs=%d/%d words=%d/%d retrans=%d replans=%d detours=%d suspect=%d resends=%d misroute=%d err=%q\n",
			p[0], p[1], rep.Path, rep.DeliveredSim, rep.Verified, rep.Rounds,
			rep.AdHocMsgs, rep.LongMsgs, rep.AdHocWords, rep.LongWords,
			rep.Retransmits, rep.Replans, rep.Detours, rep.SuspectDetours,
			rep.E2EResends, rep.MisrouteDetected, errText)
	}
	return fmt.Sprintf("%016x", h.Sum64()), resends, misroutes, failed
}

// TestAdversarialTransportGolden pins the Byzantine tier's transport output
// byte for byte.
func TestAdversarialTransportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest scenario is not short")
	}
	got, resends, misroutes, failed := adversarialDigest(t)
	t.Logf("batch: %d e2e resends, %d misroutes detected, %d failed queries", resends, misroutes, failed)
	if resends == 0 || misroutes == 0 {
		t.Errorf("batch did not exercise verified delivery: %d resends, %d misroutes detected", resends, misroutes)
	}
	if got != goldenAdversarialDigest {
		t.Fatalf("adversarial transport output drifted: digest %s, want %s", got, goldenAdversarialDigest)
	}
}

// TestHullBackendByteIdentical pins the default backend's routing output to
// the pre-refactor seed output.
func TestHullBackendByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest scenario is not short")
	}
	nw := goldenScenario(t)
	got := routeDigest(nw)
	if got != goldenHullDigest {
		t.Fatalf("hull backend routing output drifted from the pre-refactor seed: digest %s, want %s", got, goldenHullDigest)
	}
}

// goldenReliableDigests pins the reliable transport's recovery ladder under
// plain faults and under adversaries, per fault configuration: every
// TransportReport field plus the transport-level trace event stream of 40
// seeded pairs routed in order. The digests were recorded on the transport
// as it stood before its split into per-query transition methods.
var goldenReliableDigests = map[string]string{
	"loss8-5+crash6/etx":   "9a85bc1762cf5e7b",
	"loss8-5+crash6/noetx": "4ccd5b9824881960",
	"loss20-10":            "1b87a96690e6f39e",
	"adv25+loss3":          "cb65e9dadf27c346",
}

// transportKinds are the trace kinds the reliable transport itself emits.
var transportKinds = map[trace.Kind]bool{
	trace.KindHopSend: true, trace.KindHopRetry: true, trace.KindHopAck: true,
	trace.KindHopNack: true, trace.KindReplan: true, trace.KindDetour: true,
	trace.KindSuspect: true, trace.KindMisrouteDetected: true,
	trace.KindVerifyFail: true, trace.KindE2EResend: true,
}

// reliableTotals are a batch's recovery counters, so the test can check the
// digests cover batches that actually climbed the ladder.
type reliableTotals struct {
	replans, detours, resends, misroutes, failed int
}

// reliableDigest routes 40 seeded pairs in order through the reliable
// transport on the golden scenario under one fault configuration and hashes
// every report field and every transport trace event (in emission order; the
// golden scenario steps sequentially). The crash configuration crashes the
// middle node of the first plans that have a non-endpoint one, so its replans
// are guaranteed to fire.
func reliableDigest(t testing.TB, name string) (string, reliableTotals) {
	nw := goldenScenario(t)
	tr := trace.New(0)
	nw.SetTracer(tr)
	rng := rand.New(rand.NewSource(14))
	var pairs [][2]sim.NodeID
	endpoint := make(map[sim.NodeID]bool)
	var exempt []sim.NodeID
	for len(pairs) < 40 {
		s, d := sim.NodeID(rng.Intn(nw.G.N())), sim.NodeID(rng.Intn(nw.G.N()))
		if s != d {
			pairs = append(pairs, [2]sim.NodeID{s, d})
			endpoint[s], endpoint[d] = true, true
			exempt = append(exempt, s, d)
		}
	}
	var crashed []sim.NodeID
	for _, p := range pairs {
		path := nw.Route(p[0], p[1]).Path
		if v := path[len(path)/2]; len(crashed) < 6 && !endpoint[v] && !slices.Contains(crashed, v) {
			crashed = append(crashed, v)
		}
	}
	cfg := sim.FaultConfig{Seed: 14}
	opt := TransportOptions{PayloadWords: 16}
	switch name {
	case "loss8-5+crash6/etx", "loss8-5+crash6/noetx":
		cfg.AdHocLoss, cfg.LongLoss, cfg.Crashed = 0.08, 0.05, crashed
		if name == "loss8-5+crash6/noetx" {
			opt.LossAware = LossAwareOff
		}
	case "loss20-10":
		cfg.AdHocLoss, cfg.LongLoss = 0.2, 0.1
	case "adv25+loss3":
		cfg.AdHocLoss, cfg.LongLoss = 0.03, 0.03
		cfg.Adversary = sim.AdversaryConfig{Fraction: 0.25, Exempt: exempt}
	default:
		t.Fatalf("unknown reliable golden config %q", name)
	}
	if err := nw.Sim.SetFaults(cfg); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var tot reliableTotals
	for _, p := range pairs {
		rep, err := nw.RouteOnSimOpt(p[0], p[1], opt)
		errText := ""
		if err != nil {
			errText = err.Error()
			tot.failed++
		}
		tot.replans += rep.Replans
		tot.detours += rep.Detours + rep.SuspectDetours
		tot.resends += rep.E2EResends
		tot.misroutes += rep.MisrouteDetected
		fmt.Fprintf(h, "%d>%d %+v err=%q\n", p[0], p[1], *rep, errText)
		for _, e := range tr.Drain() {
			if transportKinds[e.Kind] {
				fmt.Fprintf(h, "%s r%d %d>%d seq=%d att=%d plan=%s v=%d\n",
					e.Kind, e.Round, e.From, e.To, e.Seq, e.Attempt, e.Plan, e.Value)
			}
		}
	}
	if d := tr.Dropped(); d > 0 {
		t.Fatalf("%s: tracer dropped %d events", name, d)
	}
	return fmt.Sprintf("%016x", h.Sum64()), tot
}

// TestReliableTransportGolden pins the reliable transport's reports and trace
// event stream, per fault configuration, byte for byte.
func TestReliableTransportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest scenario is not short")
	}
	for _, name := range []string{"loss8-5+crash6/etx", "loss8-5+crash6/noetx", "loss20-10", "adv25+loss3"} {
		t.Run(name, func(t *testing.T) {
			got, tot := reliableDigest(t, name)
			t.Logf("batch: %+v", tot)
			if tot.replans == 0 {
				t.Errorf("batch never replanned: %+v", tot)
			}
			if got != goldenReliableDigests[name] {
				t.Fatalf("reliable transport output drifted: digest %s, want %s", got, goldenReliableDigests[name])
			}
		})
	}
}
