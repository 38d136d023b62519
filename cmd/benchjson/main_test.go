package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from current output")

// TestConvertGolden pins the full JSON schema benchjson emits — environment
// header, parsed benchmark lines (malformed ones skipped) and the embedded
// metrics block — against testdata/golden.json. Run with -update to regenerate
// after an intentional schema change.
func TestConvertGolden(t *testing.T) {
	in, err := os.ReadFile(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := os.ReadFile(filepath.Join("testdata", "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader(in), &echo, metrics)
	if err != nil {
		t.Fatal(err)
	}
	// The text stream must pass through byte-for-byte for benchstat.
	if !bytes.Equal(echo.Bytes(), in) {
		t.Error("echoed text differs from input")
	}

	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON schema drifted from golden file (run `go test ./cmd/benchjson -update` if intentional):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestConvertWithoutMetrics checks the metrics block is absent (not null)
// when no metrics file is given.
func TestConvertWithoutMetrics(t *testing.T) {
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte("BenchmarkX-4 10 100 ns/op\n")), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte(`"metrics"`)) {
		t.Errorf("metrics key must be omitted when not provided: %s", blob)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Name != "BenchmarkX" || doc.Benchmarks[0].Procs != 4 {
		t.Errorf("parsed %+v", doc.Benchmarks)
	}
}

// TestConvertRejectsInvalidMetrics pins the error path for a corrupt file.
func TestConvertRejectsInvalidMetrics(t *testing.T) {
	var echo bytes.Buffer
	if _, err := convert(bytes.NewReader(nil), &echo, []byte("{not json")); err == nil {
		t.Fatal("invalid metrics JSON must be rejected")
	}
}

// TestDeriveChurnOverhead pins the derived churn block: the invalidation
// overhead appears only when both the churned and the stable engine-batch
// lines are present, and carries the repair cycle time alongside.
func TestDeriveChurnOverhead(t *testing.T) {
	in := "BenchmarkChurnRepair-8 100 2000000 ns/op\n" +
		"BenchmarkEngineBatchChurned-8 50 30000000 ns/op\n" +
		"BenchmarkEngineBatchStable-8 200 10000000 ns/op\n"
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Derived["churn_invalidation_overhead"]; got != 3 {
		t.Errorf("churn_invalidation_overhead = %v, want 3", got)
	}
	if got := doc.Derived["churn_repair_ns_per_cycle"]; got != 2000000 {
		t.Errorf("churn_repair_ns_per_cycle = %v, want 2000000", got)
	}

	// Without the stable control the block must be absent entirely.
	doc, err = convert(bytes.NewReader([]byte("BenchmarkEngineBatchChurned-8 50 30000000 ns/op\n")), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Derived != nil {
		t.Errorf("derived block must be omitted without both batch lines: %v", doc.Derived)
	}
}

// TestDeriveAbstractionOverhead pins the derived abstraction block: the bbox
// route overhead appears only when both backend route lines are present.
func TestDeriveAbstractionOverhead(t *testing.T) {
	in := "BenchmarkAbstractionRouteHull-8 100 10000000 ns/op\n" +
		"BenchmarkAbstractionRouteBBox-8 100 15000000 ns/op\n"
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Derived["abstraction_bbox_route_overhead"]; got != 1.5 {
		t.Errorf("abstraction_bbox_route_overhead = %v, want 1.5", got)
	}

	doc, err = convert(bytes.NewReader([]byte("BenchmarkAbstractionRouteBBox-8 100 15000000 ns/op\n")), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Derived != nil {
		t.Errorf("derived block must be omitted without the hull control: %v", doc.Derived)
	}
}

// TestParseCustomMetrics pins that b.ReportMetric units land in the custom
// block and that non-finite values are dropped instead of poisoning the
// document (json.Marshal rejects NaN/Inf).
func TestParseCustomMetrics(t *testing.T) {
	in := "BenchmarkScaleBuild/n=1e5-8 1 2000000000 ns/op 152.4 bytes/node 91234 queries/sec NaN broken/unit +Inf also/broken\n"
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Custom["bytes/node"] != 152.4 || b.Custom["queries/sec"] != 91234 {
		t.Errorf("custom metrics = %v", b.Custom)
	}
	if _, ok := b.Custom["broken/unit"]; ok {
		t.Error("NaN metric must be dropped")
	}
	if _, ok := b.Custom["also/broken"]; ok {
		t.Error("Inf metric must be dropped")
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("document with custom metrics must marshal: %v", err)
	}
}

// TestMergePriorFirstRun is the first-run golden: merging against a missing
// or empty prior file must leave the document byte-identical to not merging
// at all — no error, no NaN, no stray fields.
func TestMergePriorFirstRun(t *testing.T) {
	in := "goos: linux\nBenchmarkX-4 10 100 ns/op\n"
	var echo bytes.Buffer
	fresh, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for name, setup := range map[string]func(string) error{
		"missing": func(string) error { return nil },
		"empty":   func(p string) error { return os.WriteFile(p, nil, 0o644) },
		"blank":   func(p string) error { return os.WriteFile(p, []byte(" \n\t\n"), 0o644) },
	} {
		t.Run(name, func(t *testing.T) {
			prior := filepath.Join(dir, name+".json")
			if err := setup(prior); err != nil {
				t.Fatal(err)
			}
			doc := fresh
			if err := mergePrior(&doc, prior); err != nil {
				t.Fatalf("first-run merge must not fail: %v", err)
			}
			got, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("first-run merge changed the document:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestMergePriorKeepsAndOverrides pins the merge semantics: prior lines
// survive unless re-measured, re-measured lines take the fresh value, and
// derived ratios are recomputed over the merged set.
func TestMergePriorKeepsAndOverrides(t *testing.T) {
	prior := benchFile{
		GoOS: "linux",
		Benchmarks: []benchResult{
			{Name: "BenchmarkAbstractionRouteHull", Procs: 8, Iterations: 100, NsPerOp: 10000000},
			{Name: "BenchmarkOld", Procs: 8, Iterations: 5, NsPerOp: 42},
		},
	}
	path := filepath.Join(t.TempDir(), "prior.json")
	buf, err := json.Marshal(prior)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	in := "BenchmarkAbstractionRouteBBox-8 100 15000000 ns/op\n" +
		"BenchmarkOld-8 7 99 ns/op\n"
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mergePrior(&doc, path); err != nil {
		t.Fatal(err)
	}
	byName := map[string]benchResult{}
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("merged %d benchmarks, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	if byName["BenchmarkOld"].NsPerOp != 99 {
		t.Errorf("re-measured line must take the fresh value, got %v", byName["BenchmarkOld"].NsPerOp)
	}
	if byName["BenchmarkAbstractionRouteHull"].NsPerOp != 10000000 {
		t.Error("prior-only line must survive the merge")
	}
	// Cross-benchmark ratio now derivable from one prior and one fresh line.
	if got := doc.Derived["abstraction_bbox_route_overhead"]; got != 1.5 {
		t.Errorf("derived over merged set = %v, want 1.5", got)
	}
	if doc.GoOS != "linux" {
		t.Errorf("environment must fall back to prior when unset, got %q", doc.GoOS)
	}
}

// TestMergePriorKeysByProcs pins that a row is one benchmark at one
// GOMAXPROCS: a fresh run replaces only the prior rows of its own procs
// legs, so merging a -cpu 1 run keeps the procs-2 rows and vice versa.
func TestMergePriorKeysByProcs(t *testing.T) {
	type row struct {
		procs int
		ns    float64
	}
	prior := []benchResult{
		{Name: "BenchmarkScale/n=1e4/build", Procs: 1, Iterations: 1, NsPerOp: 100},
		{Name: "BenchmarkScale/n=1e4/build", Procs: 2, Iterations: 1, NsPerOp: 60},
		{Name: "BenchmarkOther", Procs: 1, Iterations: 1, NsPerOp: 7},
	}
	for _, c := range []struct {
		name  string
		fresh string
		want  []row // rows of BenchmarkScale/n=1e4/build, in document order
	}{
		{"cpu-1 run keeps procs 2", "BenchmarkScale/n=1e4/build 1 90 ns/op\n", []row{{2, 60}, {1, 90}}},
		{"cpu-2 run keeps procs 1", "BenchmarkScale/n=1e4/build-2 1 50 ns/op\n", []row{{1, 100}, {2, 50}}},
		{"both legs replace both", "BenchmarkScale/n=1e4/build 1 90 ns/op\nBenchmarkScale/n=1e4/build-2 1 50 ns/op\n", []row{{1, 90}, {2, 50}}},
		{"new procs leg is added", "BenchmarkScale/n=1e4/build-4 1 40 ns/op\n", []row{{1, 100}, {2, 60}, {4, 40}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "prior.json")
			buf, err := json.Marshal(benchFile{Benchmarks: prior})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			doc, err := convert(bytes.NewReader([]byte(c.fresh)), io.Discard, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := mergePrior(&doc, path); err != nil {
				t.Fatal(err)
			}
			var got []row
			other := 0
			for _, b := range doc.Benchmarks {
				switch b.Name {
				case "BenchmarkScale/n=1e4/build":
					got = append(got, row{b.Procs, b.NsPerOp})
				case "BenchmarkOther":
					other++
				}
			}
			if !reflect.DeepEqual(got, c.want) || other != 1 {
				t.Fatalf("merged rows %v and %d other rows, want %v and 1", got, other, c.want)
			}
		})
	}
}

// TestClusterRollupGolden pins the cluster rollup schema: per-instance
// registry snapshots (one bare, one -trace-wrapped) merged with counters
// summed and gauges maxed, against testdata/cluster_rollup_golden.json.
func TestClusterRollupGolden(t *testing.T) {
	roll, err := rollupInstances([]string{
		filepath.Join("testdata", "instance_i0.json"),
		filepath.Join("testdata", "instance_i1.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(roll, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "cluster_rollup_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cluster rollup drifted from golden file (run `go test ./cmd/benchjson -update` if intentional):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The semantic invariants behind the golden bytes: counters summed
	// (120+95), gauges maxed (31 beats 12, 950.5 beats 410.25), and a counter
	// present in only one instance survives.
	if roll.Instances != 2 {
		t.Errorf("instances = %d, want 2", roll.Instances)
	}
	if roll.Counters["hybridroute_serve_requests_total"] != 215 {
		t.Errorf("summed requests = %d, want 215", roll.Counters["hybridroute_serve_requests_total"])
	}
	if roll.Counters["hybridroute_engine_cache_evictions_total"] != 7 {
		t.Errorf("single-instance counter must survive, got %d", roll.Counters["hybridroute_engine_cache_evictions_total"])
	}
	if roll.Gauges["hybridroute_engine_queue_depth_max"] != 31 {
		t.Errorf("maxed queue depth = %v, want 31", roll.Gauges["hybridroute_engine_queue_depth_max"])
	}
	if roll.Gauges["hybridroute_serve_drain_rate"] != 950.5 {
		t.Errorf("maxed drain rate = %v, want 950.5", roll.Gauges["hybridroute_serve_drain_rate"])
	}
}

// TestClusterRollupErrors pins the failure modes: unreadable file, invalid
// JSON, and a document with neither counters nor gauges.
func TestClusterRollupErrors(t *testing.T) {
	if _, err := rollupInstances([]string{filepath.Join("testdata", "nope.json")}); err == nil {
		t.Error("missing file must fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rollupInstances([]string{bad}); err == nil {
		t.Error("invalid JSON must fail")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"events": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rollupInstances([]string{empty}); err == nil {
		t.Error("snapshot without registry data must fail")
	}
}

// TestMergePriorKeepsCluster pins that a merge without a fresh -instances
// rollup preserves the prior one.
func TestMergePriorKeepsCluster(t *testing.T) {
	prior := benchFile{
		Benchmarks: []benchResult{{Name: "BenchmarkX", Procs: 1, Iterations: 1, NsPerOp: 1}},
		Cluster:    &clusterRollup{Instances: 3, Counters: map[string]uint64{"c": 9}},
	}
	path := filepath.Join(t.TempDir(), "prior.json")
	buf, err := json.Marshal(prior)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte("BenchmarkY-1 2 50 ns/op\n")), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mergePrior(&doc, path); err != nil {
		t.Fatal(err)
	}
	if doc.Cluster == nil || doc.Cluster.Instances != 3 || doc.Cluster.Counters["c"] != 9 {
		t.Fatalf("prior cluster rollup lost in merge: %+v", doc.Cluster)
	}
}

// TestCompareBaseline pins -compare: rows match the baseline by name and
// procs, only custom metrics both rows carry are reported, rows the baseline
// lacks are listed, a missing baseline fails, and a row far worse than its
// baseline is reported like any other.
func TestCompareBaseline(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	buf, err := json.Marshal(benchFile{Benchmarks: []benchResult{
		{Name: "BenchmarkScale/n=1e4/cold", Procs: 1, Iterations: 1, NsPerOp: 100, Custom: map[string]float64{"us/hop": 0.5, "queries/sec": 2000}},
		{Name: "BenchmarkScale/n=1e4/cold", Procs: 2, Iterations: 1, NsPerOp: 50},
		{Name: "BenchmarkScale/n=1e4/build", Procs: 1, Iterations: 1, NsPerOp: 1000, Custom: map[string]float64{"bytes/node": 300}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		run       string
		path      string
		wantErr   bool
		wantLines []string
	}{
		{
			name:      "matches by procs",
			run:       "BenchmarkScale/n=1e4/cold-2 1 60 ns/op 3000 queries/sec\n",
			path:      baseline,
			wantLines: []string{"benchjson: compare BenchmarkScale/n=1e4/cold procs=2: ns/op 50 -> 60 (x1.200)"},
		},
		{
			name: "shared custom metrics and a lacking row",
			run:  "BenchmarkScale/n=1e4/cold 1 80 ns/op 0.4 us/hop 2500 queries/sec 7 hops/query\nBenchmarkChewCorridor/grid=41x41 100 4000 ns/op\n",
			path: baseline,
			wantLines: []string{
				"benchjson: compare BenchmarkScale/n=1e4/cold procs=1: ns/op 100 -> 80 (x0.800), queries/sec 2000 -> 2500 (x1.250), us/hop 0.5 -> 0.4 (x0.800)",
				"benchjson: compare BenchmarkChewCorridor/grid=41x41 procs=1: not in the baseline",
			},
		},
		{
			name:    "missing baseline file",
			run:     "BenchmarkScale/n=1e4/cold 1 80 ns/op\n",
			path:    filepath.Join(dir, "nope.json"),
			wantErr: true,
		},
		{
			name:      "row far worse than the baseline",
			run:       "BenchmarkScale/n=1e4/build 1 3000 ns/op 290 bytes/node\n",
			path:      baseline,
			wantLines: []string{"benchjson: compare BenchmarkScale/n=1e4/build procs=1: ns/op 1000 -> 3000 (x3.000), bytes/node 300 -> 290 (x0.967)"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			doc, err := convert(bytes.NewReader([]byte(c.run)), io.Discard, nil)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err = compareBaseline(&out, doc, c.path)
			if (err != nil) != c.wantErr {
				t.Fatalf("error %v, want one: %v", err, c.wantErr)
			}
			var lines []string
			if s := strings.TrimSpace(out.String()); s != "" {
				lines = strings.Split(s, "\n")
			}
			if !reflect.DeepEqual(lines, c.wantLines) {
				t.Fatalf("lines %q, want %q", lines, c.wantLines)
			}
		})
	}
}
