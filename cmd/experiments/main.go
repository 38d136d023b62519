// Command experiments runs the full experiment suite E1–E23 (see DESIGN.md)
// and prints each result table together with its claim check; EXPERIMENTS.md
// records a reference run.
//
// Usage:
//
//	experiments [-quick] [-seed 1] [-only E2] [-workers 8] [-churn 8] [-abstraction hull|bbox] [-trace DIR] [-pprof FILE]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"

	"hybridroute/internal/expt"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced instance sizes")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "run a single experiment, e.g. E2")
	csvDir := flag.String("csv", "", "also write each result table as CSV into this directory")
	workers := flag.Int("workers", 0, "batch-engine worker pool size for E15 (0 = GOMAXPROCS)")
	traceDir := flag.String("trace", "", "write the trace artifacts (E18_trace.json/.svg, E19_churn.json, E20_abstraction.json, E22_adversary.json, E23_cluster.json) into this directory")
	churn := flag.Int("churn", 0, "append a row with this many crash+recover cycles to E19's churn sweep")
	abstraction := flag.String("abstraction", "", "hole abstraction backend for the standard scenario: hull (default) or bbox; E20 always sweeps both")
	pprofFile := flag.String("pprof", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	stopProfile := func() {}
	if *pprofFile != "" {
		f, err := os.Create(*pprofFile)
		if err != nil {
			log.Fatalf("pprof: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("pprof: %v", err)
		}
		stopProfile = pprof.StopCPUProfile
	}
	defer stopProfile()
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			log.Fatalf("trace dir: %v", err)
		}
	}

	opt := expt.Options{Quick: *quick, Seed: *seed, Workers: *workers, TraceDir: *traceDir, Churn: *churn, Abstraction: *abstraction}
	var results []*expt.Result
	for _, e := range expt.Experiments {
		if *only != "" && e.ID != *only {
			continue
		}
		r, err := e.Run(opt)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		results = append(results, r)
	}
	if len(results) == 0 {
		log.Fatalf("unknown experiment %q", *only)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatalf("csv dir: %v", err)
		}
		for _, r := range results {
			name := filepath.Join(*csvDir, r.ID+".csv")
			if err := os.WriteFile(name, []byte(r.Table.CSV()), 0o644); err != nil {
				log.Fatalf("write %s: %v", name, err)
			}
		}
	}

	failures := 0
	for _, r := range results {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
			failures++
		}
		fmt.Printf("== %s: %s [%s]\n", r.ID, r.Title, status)
		fmt.Printf("   claim: %s\n\n", r.Claim)
		fmt.Println(indent(r.Table.String(), "   "))
		for _, n := range r.Notes {
			fmt.Printf("   note: %s\n", n)
		}
		fmt.Println()
	}
	if failures > 0 {
		fmt.Printf("%d experiment(s) failed their claim check\n", failures)
		stopProfile()
		os.Exit(1)
	}
	fmt.Println("all experiment claim checks passed")
}

func indent(s, prefix string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += prefix + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += prefix + s[start:]
	}
	return out
}
