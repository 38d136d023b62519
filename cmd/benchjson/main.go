// Command benchjson converts `go test -bench` output into a JSON summary so
// CI can archive the perf trajectory as a machine-readable artifact. The raw
// text stream passes through unchanged on stdout (benchstat consumes the text
// form, so `make bench` tees through this tool and keeps both).
//
// With -metrics the trace-metrics JSON written by `hybridroute -trace` (or
// the E18 artifact) is embedded verbatim as a "metrics" block, so one CI
// artifact carries both the perf trajectory and the observability counters.
//
// With -instances a comma-separated list of per-instance registry snapshots
// (bare {"counters","gauges"} documents or -trace wrappers) is merged into a
// cluster-wide "cluster" rollup: counters are summed across instances, gauges
// take the fleet maximum.
//
// With -compare a baseline document (an earlier BENCH_results.json) is read
// before anything is written, and every row it also holds at the same name
// and GOMAXPROCS is reported on stderr: ns/op and each custom metric both rows
// carry, old -> new with the ratio new/old. Rows the baseline lacks are
// listed. It only reports: the exit status does not depend on the ratios.
//
// Usage:
//
//	go test -bench=. -benchmem | benchjson -o BENCH_results.json [-metrics trace.json] [-instances i0.json,i1.json] [-compare BASELINE.json]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line. Custom carries b.ReportMetric
// units the standard schema has no field for (bytes/node, queries/sec, …).
type benchResult struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Custom      map[string]float64 `json:"custom,omitempty"`
}

// benchFile is the JSON document: run environment plus every benchmark line,
// derived cross-benchmark ratios, optionally the trace-metrics block embedded
// via -metrics, and optionally the cluster-wide rollup built via -instances.
type benchFile struct {
	GoOS       string             `json:"goos,omitempty"`
	GoArch     string             `json:"goarch,omitempty"`
	Pkg        string             `json:"pkg,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []benchResult      `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
	Metrics    json.RawMessage    `json:"metrics,omitempty"`
	Cluster    *clusterRollup     `json:"cluster,omitempty"`
}

// clusterRollup is the fleet-wide view of per-instance registry snapshots:
// counters are summed (work adds up across instances), gauges take the max
// (a high-water mark anywhere is a high-water mark for the fleet).
type clusterRollup struct {
	Instances int                `json:"instances"`
	Counters  map[string]uint64  `json:"counters,omitempty"`
	Gauges    map[string]float64 `json:"gauges,omitempty"`
}

// registryDoc matches both snapshot shapes on disk: a bare registry document
// ({"counters": ..., "gauges": ...}, the trace.Registry JSON form) or a
// wrapper with that document under a "metrics" key (the `hybridroute -trace`
// / E18 artifact form).
type registryDoc struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Metrics  *registryDoc       `json:"metrics"`
}

// rollupInstances merges per-instance registry snapshot files into one
// cluster-wide rollup.
func rollupInstances(paths []string) (*clusterRollup, error) {
	roll := &clusterRollup{}
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc registryDoc
		if err := json.Unmarshal(buf, &doc); err != nil {
			return nil, fmt.Errorf("instance snapshot %s: %w", path, err)
		}
		reg := &doc
		if doc.Metrics != nil && doc.Counters == nil && doc.Gauges == nil {
			reg = doc.Metrics
		}
		if reg.Counters == nil && reg.Gauges == nil {
			return nil, fmt.Errorf("instance snapshot %s: no counters or gauges found", path)
		}
		roll.Instances++
		for k, v := range reg.Counters {
			if roll.Counters == nil {
				roll.Counters = map[string]uint64{}
			}
			roll.Counters[k] += v
		}
		for k, v := range reg.Gauges {
			if roll.Gauges == nil {
				roll.Gauges = map[string]float64{}
			}
			if cur, ok := roll.Gauges[k]; !ok || v > cur {
				roll.Gauges[k] = v
			}
		}
	}
	return roll, nil
}

// deriveRatios computes cross-benchmark summary metrics that only make sense
// once related lines are merged into one document: the churn plan-cache
// invalidation overhead (the churned warm batch priced against the stable
// one, with the raw repair cycle alongside for attribution) and the hole
// abstraction backend overhead (the bbox overlay route workload priced
// against the hull one on the intersecting-hulls deployment).
func deriveRatios(doc *benchFile) {
	ns := make(map[string]float64, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		ns[b.Name] = b.NsPerOp
	}
	derived := func(key string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A zero or missing baseline must never poison the document:
			// json.Marshal rejects NaN/Inf outright.
			return
		}
		if doc.Derived == nil {
			doc.Derived = map[string]float64{}
		}
		doc.Derived[key] = v
	}
	churned, okC := ns["BenchmarkEngineBatchChurned"]
	stable, okS := ns["BenchmarkEngineBatchStable"]
	if okC && okS && stable > 0 {
		derived("churn_invalidation_overhead", churned/stable)
		if repair, ok := ns["BenchmarkChurnRepair"]; ok {
			derived("churn_repair_ns_per_cycle", repair)
		}
	}
	bbox, okB := ns["BenchmarkAbstractionRouteBBox"]
	hull, okH := ns["BenchmarkAbstractionRouteHull"]
	if okB && okH && hull > 0 {
		derived("abstraction_bbox_route_overhead", bbox/hull)
	}
}

// convert reads `go test -bench` text from r, echoes every line to echo
// unchanged, and returns the parsed document. metricsJSON, when non-nil, is
// validated and embedded verbatim.
func convert(r io.Reader, echo io.Writer, metricsJSON []byte) (benchFile, error) {
	doc := benchFile{Benchmarks: []benchResult{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line) // pass the raw benchstat-consumable text through
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return doc, fmt.Errorf("read: %w", err)
	}
	if metricsJSON != nil {
		if !json.Valid(metricsJSON) {
			return doc, fmt.Errorf("metrics file is not valid JSON")
		}
		doc.Metrics = json.RawMessage(metricsJSON)
	}
	deriveRatios(&doc)
	return doc, nil
}

// rowKey identifies a benchmark row: a -cpu 1 and a -cpu 2 run of one
// benchmark are two rows.
type rowKey struct {
	name  string
	procs int
}

// loadDoc reads a results document; found is false when the file is missing
// or blank.
func loadDoc(path string) (doc benchFile, found bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return doc, false, nil
		}
		return doc, false, err
	}
	if len(bytes.TrimSpace(buf)) == 0 {
		return doc, false, nil
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, false, fmt.Errorf("results %s: %w", path, err)
	}
	return doc, true, nil
}

// mergePrior folds the benchmarks of a previous output document (typically
// the -o target of an earlier run) under the current one: prior lines are
// kept unless the current run re-measured the same benchmark at the same
// GOMAXPROCS, and the derived ratios are recomputed over the merged set. So a
// -cpu 1 run leaves the procs-2 rows of the same benchmarks in place. A
// missing or empty prior file is a first run and merges to nothing — it must
// never fail or taint the output.
func mergePrior(doc *benchFile, path string) error {
	prior, found, err := loadDoc(path)
	if err != nil || !found {
		return err
	}
	fresh := make(map[rowKey]bool, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		fresh[rowKey{b.Name, b.Procs}] = true
	}
	merged := make([]benchResult, 0, len(prior.Benchmarks)+len(doc.Benchmarks))
	for _, b := range prior.Benchmarks {
		if !fresh[rowKey{b.Name, b.Procs}] {
			merged = append(merged, b)
		}
	}
	doc.Benchmarks = append(merged, doc.Benchmarks...)
	if doc.GoOS == "" {
		doc.GoOS = prior.GoOS
	}
	if doc.GoArch == "" {
		doc.GoArch = prior.GoArch
	}
	if doc.Pkg == "" {
		doc.Pkg = prior.Pkg
	}
	if doc.CPU == "" {
		doc.CPU = prior.CPU
	}
	if doc.Metrics == nil {
		doc.Metrics = prior.Metrics
	}
	if doc.Cluster == nil {
		doc.Cluster = prior.Cluster
	}
	doc.Derived = nil
	deriveRatios(doc)
	return nil
}

// compareBaseline writes to w one line per row of doc that the baseline
// document at path holds at the same name and procs: ns/op and every custom
// metric both rows carry, old -> new and the ratio new/old. It then lists the
// rows the baseline lacks. A missing baseline is an error: there is nothing to
// compare against.
func compareBaseline(w io.Writer, doc benchFile, path string) error {
	base, found, err := loadDoc(path)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("no baseline results at %s", path)
	}
	old := make(map[rowKey]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[rowKey{b.Name, b.Procs}] = b
	}
	change := func(name string, was, now float64) string {
		if was == 0 {
			return fmt.Sprintf(" %s %.4g -> %.4g", name, was, now)
		}
		return fmt.Sprintf(" %s %.4g -> %.4g (x%.3f)", name, was, now, now/was)
	}
	var lacking []string
	for _, b := range doc.Benchmarks {
		row := fmt.Sprintf("%s procs=%d", b.Name, b.Procs)
		o, ok := old[rowKey{b.Name, b.Procs}]
		if !ok {
			lacking = append(lacking, row)
			continue
		}
		line := row + ":" + change("ns/op", o.NsPerOp, b.NsPerOp)
		units := make([]string, 0, len(b.Custom))
		for u := range b.Custom {
			if _, shared := o.Custom[u]; shared {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			line += "," + change(u, o.Custom[u], b.Custom[u])
		}
		fmt.Fprintln(w, "benchjson: compare "+line)
	}
	for _, row := range lacking {
		fmt.Fprintln(w, "benchjson: compare "+row+": not in the baseline")
	}
	return nil
}

func main() {
	out := flag.String("o", "BENCH_results.json", "output JSON path")
	metrics := flag.String("metrics", "", "trace-metrics JSON file to embed as the \"metrics\" block")
	instances := flag.String("instances", "", "comma-separated per-instance registry snapshot files to merge into the \"cluster\" rollup (counters summed, gauges maxed)")
	merge := flag.Bool("merge", false, "merge with the existing output file instead of replacing it (a missing or empty file is a first run)")
	compare := flag.String("compare", "", "baseline results JSON to report each re-measured row against (name and procs), before anything is written")
	flag.Parse()

	var metricsJSON []byte
	if *metrics != "" {
		var err error
		if metricsJSON, err = os.ReadFile(*metrics); err != nil {
			log.Fatalf("benchjson: metrics: %v", err)
		}
	}
	doc, err := convert(os.Stdin, os.Stdout, metricsJSON)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	if *instances != "" {
		roll, err := rollupInstances(strings.Split(*instances, ","))
		if err != nil {
			log.Fatalf("benchjson: instances: %v", err)
		}
		doc.Cluster = roll
	}
	if *compare != "" {
		if err := compareBaseline(os.Stderr, doc, *compare); err != nil {
			log.Fatalf("benchjson: compare: %v", err)
		}
	}
	if *merge {
		if err := mergePrior(&doc, *out); err != nil {
			log.Fatalf("benchjson: merge: %v", err)
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: marshal: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatalf("benchjson: write: %v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark(s) to %s\n", len(doc.Benchmarks), *out)
}

// parseBenchLine parses a standard testing.B result line, e.g.
//
//	BenchmarkE2Stretch-8   100   12345678 ns/op   4096 B/op   12 allocs/op
func parseBenchLine(line string) (benchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return benchResult{}, false
	}
	var r benchResult
	r.Name = f[0]
	r.Procs = 1
	if i := strings.LastIndex(f[0], "-"); i > 0 {
		if p, err := strconv.Atoi(f[0][i+1:]); err == nil {
			r.Name, r.Procs = f[0][:i], p
		}
	}
	iter, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r.Iterations = iter
	// The remainder is (value, unit) pairs. Unknown units come from
	// b.ReportMetric (bytes/node, queries/sec, …) and land in Custom.
	// Non-finite values are dropped: json.Marshal rejects NaN/Inf, and a
	// degenerate metric must not take the whole document down with it.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Custom == nil {
				r.Custom = map[string]float64{}
			}
			r.Custom[f[i+1]] = v
		}
	}
	if r.NsPerOp == 0 {
		return benchResult{}, false
	}
	return r, true
}
