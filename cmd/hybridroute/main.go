// Command hybridroute runs the full pipeline on a generated scenario and
// routes a batch of queries, reporting preprocessing cost and path stretch —
// a one-shot demonstration of the system.
//
// With -batch the query workload is answered by the concurrent batch engine
// (worker pool + sharded plan cache) instead of one sequential Route call
// per query, and the report adds throughput and cache statistics.
//
// With -trace the run records structured events through the whole stack
// (simulator sends/drops/deliveries, per-hop transport attempts, plan-cache
// effectiveness), prints a traced sample query with its per-hop retransmit
// breakdown and competitive ratio, and writes the aggregated metrics plus the
// sample report as JSON to the given file.
//
// With -serve the process skips the one-shot query batch and instead runs the
// preprocessed network as a long-running query service (internal/serve): an
// HTTP/JSON API on -addr with bounded-queue admission control, live Prometheus
// /metrics, optional streaming JSON export (-serve-export), and — when -churn
// is set — a live crash/recover schedule applied while traffic is served.
// SIGINT/SIGTERM drains gracefully.
//
// With -serve -cluster N the service becomes resilient and multi-instance
// (internal/cluster): N in-process backends, each a full serve.Server with
// its own engine and plan cache, behind a gateway on -addr that spatially
// shards queries with replica factor -replicas, health-checks /readyz,
// breaks circuits on failing backends, retries with jittered backoff, hedges
// the tail when -hedge is set, and degrades gracefully when a whole replica
// set is down. -chaos replays a fault schedule (kill/pause/resume/slow)
// against the backends while traffic is served. The drain rollup pins the
// no-loss invariant ("lost 0").
//
// Usage:
//
//	hybridroute [-n 600] [-holes 3] [-queries 200] [-seed 1] [-scenario uniform|city|maze|grid]
//	            [-abstraction hull|bbox] [-batch] [-workers 0] [-cache 4096]
//	            [-loss 0.05] [-crash 5] [-churn 4] [-retries 3]
//	            [-adversary 0.2 | -adversary 0.2,misroute+forge]
//	            [-trace FILE] [-pprof FILE]
//	            [-serve] [-addr :8080] [-serve-export FILE]
//	            [-cluster 3] [-replicas 2] [-hedge 20ms] [-chaos "kill@5s:1,slow@10s:2:50ms"]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hybridroute/internal/abstraction"
	"hybridroute/internal/cluster"
	"hybridroute/internal/core"
	"hybridroute/internal/geom"
	"hybridroute/internal/serve"
	"hybridroute/internal/sim"
	"hybridroute/internal/stats"
	"hybridroute/internal/trace"
	"hybridroute/internal/workload"
)

func main() {
	o, err := parseOptions(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("flags: %v", err)
	}
	stopProfile := func() {}
	if o.pprofFile != "" {
		f, err := os.Create(o.pprofFile)
		if err != nil {
			log.Fatalf("pprof: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("pprof: %v", err)
		}
		stopProfile = pprof.StopCPUProfile
	}
	defer stopProfile()

	sc, err := buildScenario(o.scenario, o.seed, o.n, o.holes)
	if err != nil {
		log.Fatalf("scenario: %v", err)
	}
	if err := o.checkObstacles(len(sc.Obstacles)); err != nil {
		log.Fatalf("flags: %v", err)
	}
	fmt.Printf("scenario %q: %d nodes, %d obstacles, radio range %.2f\n",
		sc.Name, len(sc.Points), len(sc.Obstacles), sc.Radius)

	g := sc.Build()
	var nw *core.Network
	if o.static {
		nw, err = core.PreprocessStatic(g, core.Config{Abstraction: o.abstraction})
	} else {
		nw, err = core.Preprocess(g, core.Config{Strict: true, Seed: uint64(o.seed), Abstraction: o.abstraction})
	}
	if err != nil {
		log.Fatalf("preprocess: %v", err)
	}
	var tracer *trace.Tracer
	if o.traceFile != "" {
		tracer = trace.New(0)
		nw.SetTracer(tracer)
	}
	r := nw.Report
	if o.static {
		fmt.Println("\npreprocessing: static pipeline (no protocol rounds simulated)")
	} else {
		fmt.Printf("\npreprocessing: %d rounds total (LDel %d, rings %d, tree %d, flood %d, domset %d)\n",
			r.Rounds.Total, r.Rounds.LDel, r.Rounds.Rings, r.Rounds.Tree, r.Rounds.Flood, r.Rounds.DomSet)
	}
	fmt.Printf("holes: %d (hull nodes %d, boundary nodes %d), tree height %d\n",
		r.NumHoles, r.NumHullNodes, r.NumBoundaryNodes, r.TreeHeight)
	fmt.Printf("max communication work per node: %d messages / %d words\n", r.MaxMsgs, r.MaxWords)
	fmt.Printf("storage (words): hull %d, boundary %d, other %d (abstraction: %s)\n",
		r.StorageHull, r.StorageBoundary, r.StorageOther, r.Abstraction)
	if r.HullsIntersect {
		fmt.Println("WARNING: hole hulls intersect; the paper's competitiveness assumption is violated")
	}

	if o.serve {
		if o.clusterN > 0 {
			if err := runCluster(nw, o); err != nil {
				log.Fatalf("cluster: %v", err)
			}
		} else if err := runServe(nw, o); err != nil {
			log.Fatalf("serve: %v", err)
		}
		return
	}

	rng := rand.New(rand.NewSource(o.seed + 99))
	var pairs []core.Query
	for len(pairs) < o.queries {
		s := sim.NodeID(rng.Intn(g.N()))
		t := sim.NodeID(rng.Intn(g.N()))
		if s != t {
			pairs = append(pairs, core.Query{S: s, T: t})
		}
	}

	var outcomes []core.Outcome
	switch {
	case o.batch:
		eng := core.NewEngine(nw, core.EngineConfig{Workers: o.workers, CacheSize: o.cache})
		eng.SetTracer(tracer)
		start := time.Now()
		outcomes = eng.RouteBatch(pairs)
		dur := time.Since(start)
		st := eng.Stats()
		fmt.Printf("\nbatch engine: %d queries in %s (%.0f queries/s, %d workers)\n",
			len(pairs), dur.Round(time.Microsecond), float64(len(pairs))/dur.Seconds(), eng.Workers())
		fmt.Printf("plan cache: %d hits / %d misses (rate %.2f), %d entries, %d evictions\n",
			st.Hits, st.Misses, st.HitRate(), st.Entries, st.Evictions)
	default:
		outcomes = make([]core.Outcome, len(pairs))
		for i, p := range pairs {
			if o.router == "visibility" {
				outcomes[i] = nw.RouteVisibility(p.S, p.T)
			} else {
				outcomes[i] = nw.Route(p.S, p.T)
			}
		}
	}

	var stretches []float64
	delivered, fallbacks := 0, 0
	cases := map[int]int{}
	for i, out := range outcomes {
		cases[out.Case]++
		if !out.Reached {
			continue
		}
		delivered++
		if out.PlanFallback {
			fallbacks++
		}
		if _, opt, ok := g.ShortestPath(pairs[i].S, pairs[i].T); ok && opt > 0 {
			stretches = append(stretches, out.Length(nw.LDel)/opt)
		}
	}
	sum := stats.Summarize(stretches)
	fmt.Printf("\nrouting %d queries: delivered %d, plan fallbacks %d\n", o.queries, delivered, fallbacks)
	fmt.Printf("position cases (Sec 4.3): %v\n", cases)
	fmt.Printf("stretch vs UDG shortest path: mean %.3f, p95 %.3f, max %.3f (paper bound 35.37)\n",
		sum.Mean, sum.P95, sum.Max)
	if sum.Max > 35.37 {
		fmt.Println("NOTE: max stretch exceeds the overlay bound (degenerate geometry or intersecting hulls)")
		stopProfile()
		os.Exit(1)
	}

	// Fault-injected delivery run: only when requested, so the default output
	// stays byte-identical to earlier releases.
	if o.faulted() {
		runFaultedDelivery(nw, pairs, o)
	}

	if tracer != nil {
		if err := writeTraceOutput(o.traceFile, nw, tracer, pairs); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}
}

// options is the command line: every flag, plus the -adversary and -chaos
// values validate parses once for the run.
type options struct {
	n, holes, queries     int
	seed                  int64
	scenario, router      string
	abstraction           string
	batch, static, serve  bool
	workers, cache        int
	loss                  float64
	crash, churn, retries int
	adversary             string
	traceFile, pprofFile  string
	addr, serveExport     string
	clusterN, replicas    int
	chaosSpec             string
	hedge                 time.Duration
	advFrac               float64
	advBehaviors          sim.AdversaryBehavior
	chaos                 cluster.ChaosSchedule
	holesSet              bool // -holes was given, so its count must fit
}

// parseOptions defines every flag on fs, parses args and validates the
// result. main passes flag.CommandLine, which prints usage and exits 2 on a
// flag it cannot parse; a rejected value or combination is the returned
// error.
func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.IntVar(&o.n, "n", 600, "number of nodes")
	fs.IntVar(&o.holes, "holes", 3, "number of convex obstacles (uniform scenario)")
	fs.IntVar(&o.queries, "queries", 200, "routing queries to run")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.scenario, "scenario", "uniform", "scenario: uniform, city, maze or grid (bordered grid with O(1) holes; use with -static for large -n)")
	fs.StringVar(&o.router, "router", "hull", "routing variant: hull (Sec. 4) or visibility (Sec. 3)")
	fs.StringVar(&o.abstraction, "abstraction", "", "hole abstraction backend: hull (default, convex hulls) or bbox (bounding-box overlay, tolerates intersecting hulls)")
	fs.BoolVar(&o.batch, "batch", false, "answer queries through the concurrent batch engine")
	fs.IntVar(&o.workers, "workers", 0, "batch engine worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.cache, "cache", 0, "batch engine plan cache size in whole answers (0 = default 4096, negative = disabled)")
	fs.Float64Var(&o.loss, "loss", 0, "message loss probability per link class; > 0 adds a fault-injected delivery run")
	fs.IntVar(&o.crash, "crash", 0, "number of crashed nodes to inject into the delivery run")
	fs.IntVar(&o.churn, "churn", 0, "number of seeded crash+recover cycles replayed while the delivery run is in flight")
	fs.IntVar(&o.retries, "retries", core.DefaultRetries, "per-hop retry budget for fault-injected delivery")
	fs.StringVar(&o.adversary, "adversary", "", "Byzantine adversaries in the delivery run: FRAC[,BEHAVIORS] e.g. 0.2 or 0.2,misroute+forge (behaviors: misroute, drop, forge, lie, all; default all); engages end-to-end verified delivery")
	fs.StringVar(&o.traceFile, "trace", "", "record stack-wide trace events; write metrics + a traced sample query as JSON to this file")
	fs.StringVar(&o.pprofFile, "pprof", "", "write a CPU profile of the run to this file")
	fs.BoolVar(&o.static, "static", false, "build the network with the simulator-free static pipeline (identical routing state, no protocol rounds; enables much larger -n)")
	fs.BoolVar(&o.serve, "serve", false, "run as a long-running query service (HTTP/JSON API + /metrics) instead of a one-shot batch")
	fs.StringVar(&o.addr, "addr", ":8080", "serve mode: HTTP listen address")
	fs.StringVar(&o.serveExport, "serve-export", "", "serve mode: append OTLP-style JSON metric batches to this file")
	fs.IntVar(&o.clusterN, "cluster", 0, "serve mode: shard queries across this many backend instances behind a gateway (0 = single server)")
	fs.IntVar(&o.replicas, "replicas", 2, "cluster mode: replica factor R — backends owning each spatial region")
	fs.StringVar(&o.chaosSpec, "chaos", "", "cluster mode: instance fault schedule, e.g. \"kill@5s:1,slow@10s:2:50ms,pause@15s:0,resume@20s:0\"")
	fs.DurationVar(&o.hedge, "hedge", 0, "cluster mode: hedge a request to the standby replica after this delay (0 = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q: every option is a flag", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := o.validate(set); err != nil {
		return nil, err
	}
	return o, nil
}

// faulted reports whether the one-shot run adds the fault-injected delivery
// run.
func (o *options) faulted() bool {
	return o.loss > 0 || o.crash > 0 || o.churn > 0 || o.advFrac > 0
}

// validate rejects, before any work starts, a value out of range, an unknown
// name, two modes that exclude each other, and a flag given explicitly (set,
// from fs.Visit) that the selected mode never reads. It parses -adversary and
// -chaos for the run.
func (o *options) validate(set map[string]bool) error {
	var err error
	if o.advFrac, o.advBehaviors, err = parseAdversaryFlag(o.adversary); err != nil {
		return err
	}
	switch {
	case o.n < 2:
		return fmt.Errorf("-n %d must be >= 2: a query needs two distinct nodes", o.n)
	case o.holes < 0:
		return fmt.Errorf("-holes %d must be >= 0", o.holes)
	case o.queries < 0:
		return fmt.Errorf("-queries %d must be >= 0", o.queries)
	case !(o.loss >= 0 && o.loss <= 1): // negated so NaN is rejected too
		return fmt.Errorf("-loss %v is not a probability in [0, 1]", o.loss)
	case o.crash < 0:
		return fmt.Errorf("-crash %d must be >= 0", o.crash)
	case o.churn < 0:
		return fmt.Errorf("-churn %d must be >= 0", o.churn)
	case o.retries < 0:
		return fmt.Errorf("-retries %d must be >= 0 (0 means the default of %d)", o.retries, core.DefaultRetries)
	case o.clusterN < 0:
		return fmt.Errorf("-cluster must be >= 0, got %d", o.clusterN)
	case o.hedge < 0:
		return fmt.Errorf("-hedge must be >= 0, got %v", o.hedge)
	case !slices.Contains([]string{"uniform", "city", "maze", "grid"}, o.scenario):
		return fmt.Errorf("unknown -scenario %q (want uniform, city, maze or grid)", o.scenario)
	case o.router != "hull" && o.router != "visibility":
		return fmt.Errorf("unknown -router %q (want hull or visibility)", o.router)
	case o.abstraction != "" && !slices.Contains(abstraction.Names(), o.abstraction):
		return fmt.Errorf("unknown -abstraction %q (want one of %v)", o.abstraction, abstraction.Names())
	case o.static && (o.faulted() || o.traceFile != ""):
		return errors.New("-static builds no simulator; -loss/-crash/-churn/-adversary/-trace need the distributed pipeline")
	case (o.batch || o.serve) && o.router != "hull":
		return fmt.Errorf("-batch and -serve answer through the engine, which supports the hull router only (got -router %q)", o.router)
	case o.serve && o.batch:
		return errors.New("-serve already routes through the batch engine; drop -batch")
	case o.serve && (o.loss > 0 || o.crash > 0 || o.advFrac > 0):
		return errors.New("-loss/-crash/-adversary configure the one-shot delivery run; serve mode supports live churn only (-churn)")
	case o.serve && o.traceFile != "":
		return errors.New("-trace writes a post-run dump; serve mode streams metrics instead (use -serve-export)")
	case o.clusterN > 0 && !o.serve:
		return errors.New("-cluster shards the query service; it needs -serve")
	case o.clusterN > 0 && (o.replicas < 1 || o.replicas > o.clusterN):
		return fmt.Errorf("-replicas must be in [1, %d] (the -cluster size), got %d", o.clusterN, o.replicas)
	case o.clusterN > 0 && o.churn > 0:
		return errors.New("-churn drives a single server's live membership; cluster mode injects faults with -chaos instead")
	}
	for _, m := range []struct {
		flag  string
		on    bool
		needs string
	}{
		{"addr", o.serve, "-serve"},
		{"serve-export", o.serve && o.clusterN == 0, "-serve without -cluster (the gateway serves its rollup on /metrics)"},
		{"replicas", o.clusterN > 0, "-cluster"},
		{"chaos", o.clusterN > 0, "-cluster"},
		{"hedge", o.clusterN > 0, "-cluster"},
		{"retries", o.faulted() && !o.serve, "a one-shot delivery run with -loss, -crash, -churn or -adversary"},
		{"workers", o.batch || o.serve, "-batch or -serve"},
		{"cache", o.batch || o.serve, "-batch or -serve"},
		{"holes", o.scenario == "uniform", "-scenario uniform"},
	} {
		if set[m.flag] && !m.on {
			return fmt.Errorf("-%s takes effect only with %s", m.flag, m.needs)
		}
	}
	if o.chaosSpec != "" {
		if o.chaos, err = cluster.ParseChaosSpec(o.chaosSpec, o.clusterN); err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
	}
	o.holesSet = set["holes"]
	return nil
}

// checkObstacles rejects a run whose scenario placed fewer obstacles than an
// explicit -holes asked for: how many fit depends on the area -n sets, so
// validate cannot know. The default count is a ceiling, not a demand.
func (o *options) checkObstacles(placed int) error {
	if o.holesSet && placed < o.holes {
		return fmt.Errorf("-holes %d: only %d obstacles fit at -n %d", o.holes, placed, o.n)
	}
	return nil
}

// parseAdversaryFlag parses -adversary's "FRAC[,BEHAVIORS]" form: a node
// fraction in (0, 1], optionally followed by a '+'-separated behavior list
// understood by sim.ParseBehaviors ("" selects every behavior).
func parseAdversaryFlag(s string) (float64, sim.AdversaryBehavior, error) {
	if s == "" {
		return 0, 0, nil
	}
	fracStr, behavStr := s, ""
	if i := strings.IndexByte(s, ','); i >= 0 {
		fracStr, behavStr = s[:i], s[i+1:]
	}
	frac, err := strconv.ParseFloat(fracStr, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-adversary %q: fraction %q is not a number", s, fracStr)
	}
	if !(frac > 0 && frac <= 1) { // negated so NaN is rejected too
		return 0, 0, fmt.Errorf("-adversary %q: fraction %v must be in (0, 1]", s, frac)
	}
	behaviors, err := sim.ParseBehaviors(behavStr)
	if err != nil {
		return 0, 0, fmt.Errorf("-adversary %q: %v", s, err)
	}
	return frac, behaviors, nil
}

// serveHTTP serves h on addr until SIGINT or SIGTERM, which it reports with
// "received SIG, " and note, then closes the listener, letting in-flight
// requests finish, and runs drain; one 30 s budget bounds both. A listener
// error returns at once.
func serveHTTP(addr string, h http.Handler, note string, drain func(context.Context) error) error {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	hs := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	select {
	case sig := <-sigCh:
		fmt.Printf("received %v, %s\n", sig, note)
	case err := <-errCh:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	return drain(ctx)
}

// runCluster runs the preprocessed network as a resilient multi-instance
// service: -cluster in-process backends behind the sharding gateway, the
// -chaos schedule replayed against them, until SIGINT/SIGTERM. The drain
// rollup prints per-instance accepted/completed and pins the no-loss
// invariant ("lost 0") that CI greps for.
func runCluster(nw *core.Network, o *options) error {
	instances, err := cluster.SpawnInstances(nw, o.clusterN, cluster.InstanceOptions{Workers: o.workers, CacheSize: o.cache})
	if err != nil {
		return err
	}
	g, err := cluster.NewGateway(nw, cluster.FromInstances(instances), cluster.Config{
		Replicas:   o.replicas,
		HedgeDelay: o.hedge,
		Seed:       uint64(o.seed),
	})
	if err != nil {
		return err
	}
	g.Start()
	defer g.Close()

	chaosStop, chaosDone := make(chan struct{}), make(chan struct{})
	go func() { defer close(chaosDone); o.chaos.Apply(chaosStop, instances) }()
	stopChaos := sync.OnceFunc(func() { close(chaosStop); <-chaosDone })
	defer stopChaos()

	fmt.Printf("\ncluster gateway on %s: %d backends, R=%d, hedge %v, chaos %q\n", o.addr, o.clusterN, o.replicas, o.hedge, o.chaosSpec)
	for _, in := range instances {
		fmt.Printf("  backend %s at %s\n", in.ID, in.URL())
	}
	return serveHTTP(o.addr, g.Handler(), "draining cluster", func(ctx context.Context) error {
		stopChaos()
		var accepted, completed uint64
		survivors := 0
		for _, in := range instances {
			killed := in.Killed()
			if !killed {
				if err := in.Drain(ctx); err != nil {
					return fmt.Errorf("drain %s: %w", in.ID, err)
				}
				survivors++
			}
			st := in.Server.ServerStats()
			state := "drained"
			if killed {
				state = "killed"
			}
			fmt.Printf("  backend %s %s: accepted %d, completed %d\n", in.ID, state, st.Accepted, st.Completed)
			if !killed {
				accepted += st.Accepted
				completed += st.Completed
			}
		}
		gst := g.Stats()
		fmt.Printf("cluster drained: %d/%d backends survived; requests %d, answered %d, degraded %d, shed %d, failovers %d, hedge wins %d, lost %d\n",
			survivors, o.clusterN, gst.Requests, gst.Answered, gst.Degraded, gst.Shed, gst.Failovers, gst.HedgeWins, accepted-completed)
		return nil
	})
}

// runServe runs the preprocessed network as a long-running query service until
// SIGINT/SIGTERM, then drains. -churn schedules that many live crash+recover
// cycles (one crash every 15s, recovery 5s later) applied while traffic is
// served.
func runServe(nw *core.Network, o *options) error {
	tracer := trace.New(0)
	nw.SetTracer(tracer)
	eng := core.NewEngine(nw, core.EngineConfig{Workers: o.workers, CacheSize: o.cache})
	eng.SetTracer(tracer)

	cfg := serve.Config{Tracer: tracer}
	if o.serveExport != "" {
		f, err := os.OpenFile(o.serveExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Export = f
	}
	rng := rand.New(rand.NewSource(o.seed + 7))
	for i := 0; i < o.churn; i++ {
		v := sim.NodeID(rng.Intn(nw.G.N()))
		at := time.Duration(i+1) * 15 * time.Second
		cfg.Churn = append(cfg.Churn,
			serve.ChurnEvent{After: at, Node: v},
			serve.ChurnEvent{After: at + 5*time.Second, Node: v, Up: true})
	}
	srv, err := serve.New(eng, cfg)
	if err != nil {
		return err
	}
	srv.Start()

	fmt.Printf("\nserving on %s (POST /route, GET /metrics, /healthz, /stats); %d live churn cycles scheduled\n",
		o.addr, o.churn)
	return serveHTTP(o.addr, srv.Handler(), "draining", func(ctx context.Context) error {
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		st := srv.ServerStats()
		fmt.Printf("drained: accepted %d, completed %d, shed %d (full) + %d (fairness), expired %d, churn events %d, topology generation %d\n",
			st.Accepted, st.Completed, st.ShedFull, st.ShedFair, st.Expired, st.ChurnEvents, st.TopoGeneration)
		return nil
	})
}

// writeTraceOutput runs one traced sample query (the first workload pair),
// prints its per-hop report, and writes the aggregated stack-wide metrics
// plus that report as JSON to path.
func writeTraceOutput(path string, nw *core.Network, tracer *trace.Tracer, pairs []core.Query) error {
	var report *core.TraceReport
	if len(pairs) > 0 {
		r, _, err := nw.TraceQuery(pairs[0].S, pairs[0].T, core.TransportOptions{PayloadWords: 32})
		if err != nil {
			fmt.Printf("\ntraced sample query %d->%d failed: %v\n", pairs[0].S, pairs[0].T, err)
		} else {
			report = r
			fmt.Printf("\ntraced sample query:\n%s", r)
		}
	}
	reg := trace.NewRegistry()
	reg.MergeEvents(tracer.Events())
	fmt.Printf("\ntrace: %d events recorded (%d dropped past the buffer limit)\n", tracer.Len(), tracer.Dropped())
	fmt.Print(reg.PrometheusText())
	blob, err := json.MarshalIndent(struct {
		Metrics *trace.Registry   `json:"metrics"`
		Sample  *core.TraceReport `json:"sample,omitempty"`
		Events  int               `json:"events"`
		Dropped uint64            `json:"events_dropped"`
	}{reg, report, tracer.Len(), tracer.Dropped()}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// runFaultedDelivery installs the seeded fault model and re-answers the query
// workload as actual payload deliveries on the simulator, reporting how many
// survive message loss, crashed nodes, mid-run churn and Byzantine
// adversaries through retries, replanning, loss-aware detours, topology
// repair, suspect failover and verified delivery.
func runFaultedDelivery(nw *core.Network, pairs []core.Query, o *options) {
	rng := rand.New(rand.NewSource(o.seed + 7))
	crashed := make([]sim.NodeID, 0, o.crash)
	isCrashed := make(map[sim.NodeID]bool)
	for len(crashed) < o.crash && len(crashed) < nw.G.N()/2 {
		v := sim.NodeID(rng.Intn(nw.G.N()))
		if !isCrashed[v] {
			isCrashed[v] = true
			crashed = append(crashed, v)
		}
	}
	cfg := sim.FaultConfig{AdHocLoss: o.loss, LongLoss: o.loss, Seed: uint64(o.seed) + 7, Crashed: crashed}
	if o.advFrac > 0 {
		// Query endpoints are exempt from the election so the workload stays
		// answerable — adversarial sources/destinations are the collusion
		// scenario E22 demonstrates, not this run's subject.
		exempt := make([]sim.NodeID, 0, 2*len(pairs))
		for _, p := range pairs {
			exempt = append(exempt, p.S, p.T)
		}
		cfg.Adversary = sim.AdversaryConfig{Fraction: o.advFrac, Behaviors: o.advBehaviors, Exempt: exempt}
	}
	if o.churn > 0 {
		// Protect static crash victims (already skipped as endpoints) and
		// every query endpoint, so churn never makes a pair undeliverable.
		protect := append([]sim.NodeID{}, crashed...)
		for _, p := range pairs {
			protect = append(protect, p.S, p.T)
		}
		cfg.Churn = sim.GenerateChurn(uint64(o.seed)+7, nw.G.N(), len(pairs)*10, o.churn, 30, protect)
	}
	if err := nw.Sim.SetFaults(cfg); err != nil {
		log.Fatalf("faults: %v", err)
	}
	topt := core.TransportOptions{PayloadWords: 32, Retries: o.retries, Reliable: true}
	delivered, attempted, retrans, replans, detours, skipped := 0, 0, 0, 0, 0, 0
	suspected, suspectDetours := 0, 0
	verified, e2eResends, misrouteDet := 0, 0, 0
	var failures []string
	for _, p := range pairs {
		if isCrashed[p.S] || isCrashed[p.T] {
			skipped++ // a crashed endpoint cannot take part in a query
			continue
		}
		attempted++
		rep, err := nw.RouteOnSimOpt(p.S, p.T, topt)
		if err != nil {
			if len(failures) < 3 {
				failures = append(failures, err.Error())
			}
			continue
		}
		if rep.DeliveredSim {
			delivered++
		}
		retrans += rep.Retransmits
		replans += rep.Replans
		detours += rep.Detours
		suspected += rep.Suspected
		suspectDetours += rep.SuspectDetours
		if rep.Verified {
			verified++
		}
		e2eResends += rep.E2EResends
		misrouteDet += rep.MisrouteDetected
	}
	advNote := ""
	if o.advFrac > 0 {
		advNote = fmt.Sprintf(", %.0f%% adversarial", 100*o.advFrac)
	}
	fmt.Printf("\nfault-injected delivery (loss %.3f, %d crashed, %d churn cycles, %d retries/hop%s):\n",
		o.loss, len(crashed), o.churn, o.retries, advNote)
	fmt.Printf("delivered %d/%d (%.1f%%), skipped %d with crashed endpoints\n",
		delivered, attempted, 100*float64(delivered)/float64(max(attempted, 1)), skipped)
	fmt.Printf("retransmissions %d, source replans %d\n", retrans, replans)
	if o.churn > 0 {
		rs := nw.RepairReport()
		fmt.Printf("churn: topology generation %d, repairs %d (%d restores)\n",
			nw.TopoGeneration(), rs.Repairs, rs.Restores)
		fmt.Printf("suspect failover: %d next hops suspected, %d suspect detours\n", suspected, suspectDetours)
	}
	if o.advFrac > 0 {
		adv := nw.Sim.AdversaryCounters()
		fmt.Printf("adversaries (%.0f%% of nodes, behaviors %s): %d misroutes, %d forged acks, %d selective drops\n",
			100*o.advFrac, o.advBehaviors, adv.Misrouted, adv.ForgedAcks, adv.SelectiveDrops)
		fmt.Printf("verified delivery: %d/%d confirmed end to end, %d e2e relaunches, %d misroutes detected\n",
			verified, delivered, e2eResends, misrouteDet)
	}
	fmt.Printf("loss-aware detours %d\n", detours)
	printLinkSummary(nw)
	for _, f := range failures {
		fmt.Printf("failure: %s\n", f)
	}
}

// printLinkSummary reports what the ack-telemetry estimator learned during the
// delivery run: how many directed links carry a loss estimate and the worst
// offenders by estimated loss.
func printLinkSummary(nw *core.Network) {
	ests := nw.Link.Snapshot()
	if len(ests) == 0 {
		fmt.Println("link telemetry: no loss observed")
		return
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i].Loss > ests[j].Loss })
	fmt.Printf("link telemetry: %d directed links with a loss estimate (generation %d)\n",
		len(ests), nw.Link.Generation())
	top := ests
	if len(top) > 5 {
		top = top[:5]
	}
	for _, e := range top {
		fmt.Printf("  worst link %d->%d: estimated loss %.2f (ETX %.2f)\n",
			e.From, e.To, e.Loss, nw.Link.ETX(e.From, e.To))
	}
}

func buildScenario(kind string, seed int64, n, holes int) (*workload.Scenario, error) {
	switch kind {
	case "city":
		return workload.CityGrid(seed, 3, 3, 3, 3, 2.2, 1, 5.5)
	case "maze":
		return workload.Maze(seed, 14, 10, 7, 8.4, 1.2, 1, n)
	case "grid":
		// Bordered jittered grid with two fixed-size central obstacles: the
		// hole count stays O(1) as n grows (uniform placement sprouts holes
		// linearly in n, and the hole-dependent build costs are superlinear
		// in hole corners), so this is the scenario that reaches 10^5-10^6
		// nodes with -static. Same geometry as the BenchmarkScale series.
		const spacing = 0.55
		cols := int(math.Round(math.Sqrt(float64(n))))
		if cols < 8 {
			cols = 8
		}
		side := float64(cols-1)*spacing + spacing/10
		c := side / 2
		obstacles := [][]geom.Point{
			workload.StarPolygon(geom.Pt(c, c+0.2), 1.6, 0.7, 5, 0.3),
			workload.RegularPolygon(geom.Pt(c+4.4, c+3.6), 1.3, 6, 0.2),
		}
		return workload.BorderedGrid(spacing, side, side, 1, obstacles)
	default:
		side := math.Sqrt(float64(n)) * 0.42
		if side < 6 {
			side = 6
		}
		obstacles := workload.RandomConvexObstacles(seed, holes, side, side, side/8, side/5, 1.2)
		return workload.WithObstacles(seed, n, side, side, 1, obstacles)
	}
}
