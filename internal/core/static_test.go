package core

import (
	"errors"
	"reflect"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
	"hybridroute/internal/workload"
)

// TestPreprocessStaticMatchesGoldenDigest pins the static (simulator-free)
// build to the exact routing behavior of the distributed pipeline: on the
// golden scenario, a PreprocessStatic network must reproduce the golden hull
// digest byte for byte. This transitively asserts LDel2Fast == the
// distributed LDel² and that every skipped phase really is off the query
// path.
func TestPreprocessStaticMatchesGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest scenario is not short")
	}
	obstacles := [][]geom.Point{
		workload.StarPolygon(geom.Pt(3, 3.2), 1.6, 0.7, 5, 0.3),
		workload.RegularPolygon(geom.Pt(7.4, 6.8), 1.3, 6, 0.2),
	}
	sc, err := workload.JitteredGrid(0.55, 10, 10, 1, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := PreprocessStatic(sc.Build(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Sim != nil {
		t.Fatal("static build must not create a simulator")
	}
	if got := routeDigest(nw); got != goldenHullDigest {
		t.Fatalf("static build routing output differs from the distributed pipeline: digest %s, want %s", got, goldenHullDigest)
	}
}

// TestPreprocessStaticBBoxBackend smoke-tests the non-default abstraction
// backend through the static path: every routed query must be answered and
// reachable pairs delivered.
func TestPreprocessStaticBBoxBackend(t *testing.T) {
	obstacles := [][]geom.Point{
		workload.StarPolygon(geom.Pt(3, 3.2), 1.6, 0.7, 5, 0.3),
	}
	sc, err := workload.JitteredGrid(0.55, 8, 8, 1, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := PreprocessStatic(sc.Build(), Config{Abstraction: "bbox"})
	if err != nil {
		t.Fatal(err)
	}
	n := nw.G.N()
	step := n/20 + 1
	for s := 0; s < n; s += step {
		for tt := 0; tt < n; tt += step {
			out := nw.Route(sim.NodeID(s), sim.NodeID(tt))
			if !out.Reached {
				t.Fatalf("static bbox route %d->%d not delivered", s, tt)
			}
		}
	}
}

// TestStaticNetworkRejectsSimulatorQueries: a PreprocessStatic network has no
// simulator, so every on-simulator entry point returns ErrNoSimulator, with
// the plan outcome in its report, instead of dereferencing the nil simulator.
func TestStaticNetworkRejectsSimulatorQueries(t *testing.T) {
	sc, err := workload.JitteredGrid(0.55, 8, 8, 1, [][]geom.Point{
		workload.StarPolygon(geom.Pt(3, 3.2), 1.6, 0.7, 5, 0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := PreprocessStatic(sc.Build(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetTracer(trace.New(0))
	s, d := sim.NodeID(0), sim.NodeID(nw.G.N()-1)
	want := nw.Route(s, d)
	opt := TransportOptions{PayloadWords: 8, Reliable: true}
	for _, c := range []struct {
		name string
		call func() (*TransportReport, error)
	}{
		{"Network.RouteOnSim", func() (*TransportReport, error) { return nw.RouteOnSim(s, d, 8) }},
		{"Network.RouteOnSimOpt", func() (*TransportReport, error) { return nw.RouteOnSimOpt(s, d, opt) }},
		{"Network.TraceQuery", func() (*TransportReport, error) { _, rep, err := nw.TraceQuery(s, d, opt); return rep, err }},
	} {
		rep, err := c.call()
		if !errors.Is(err, ErrNoSimulator) {
			t.Errorf("%s: error %v, want ErrNoSimulator", c.name, err)
		}
		if rep == nil || !reflect.DeepEqual(rep.Outcome, want) {
			t.Errorf("%s: report does not carry the plan outcome: %+v", c.name, rep)
		}
	}
	for name, batch := range map[string]func([]Query, TransportOptions) ([]*TraceReport, error){
		"Network.TraceBatch": nw.TraceBatch,
	} {
		reports, err := batch([]Query{{S: s, T: d}, {S: d, T: s}}, opt)
		if err != nil || len(reports) != 2 {
			t.Fatalf("%s: %d reports, error %v", name, len(reports), err)
		}
		for _, r := range reports {
			if r.Err != ErrNoSimulator.Error() || r.Delivered {
				t.Errorf("%s: query %d->%d reported %q (delivered %v), want ErrNoSimulator", name, r.S, r.T, r.Err, r.Delivered)
			}
		}
	}
}
