# Tier-1 verification (referenced from ROADMAP.md): gofmt + vet + build +
# full test suite + a race-detector pass over the packages with concurrent
# query paths.
.PHONY: tier1 fmt vet build test race bench bench-scale bench-serve ci loc

tier1: fmt vet build test race

# Fails, listing them, when any tracked Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go') </dev/null); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

# The batch engine serves queries from many goroutines over one shared
# Network, the simulator's fault injection must stay deterministic under
# parallel stepping, the tracer takes concurrent emits from the worker
# pool, churn repair patches the shared triangulation between engine
# batches, the hole abstraction backends are read concurrently by every
# routing worker, the mem arenas/mark sets back the router's pooled
# corridor scratch, the serve layer mixes live churn repair with
# in-flight queries and concurrent scrapes, the cluster gateway races
# hedged attempts against breaker state while chaos kills backends under
# it, and every engine worker searches one shared vis.Overlay; keep all
# ten packages race-clean.
race:
	go test -race ./internal/abstraction/... ./internal/cluster/... ./internal/core/... ./internal/delaunay/... ./internal/mem/... ./internal/routing/... ./internal/serve/... ./internal/sim/... ./internal/trace/... ./internal/vis/...

# Benchmarks stream through cmd/benchjson, which passes the benchstat-friendly
# text through unchanged and archives a JSON summary for CI artifacts. -merge
# folds the new rows into an existing BENCH_results.json (first run: no-op),
# so the scale series below and the quick series land in one document.
bench:
	go test -bench=. -benchmem -run '^$$' | go run ./cmd/benchjson -merge -o BENCH_results.json

# Scale benchmark series (n = 10^4, 10^5, 10^6): static build time, bytes per
# node and warm/cold query throughput. -benchtime=1x — one build per size is
# the measurement. The 10^6 leg peaks near 0.5 GB of resident memory.
bench-scale:
	HYBRIDROUTE_SCALE=1 go test -bench='BenchmarkScale' -benchmem -benchtime=1x -timeout 60m -run '^$$' | go run ./cmd/benchjson -merge -o BENCH_results.json

# Sustained serve-mode throughput: open-loop arrivals at three offered rates
# against the long-running server, reporting p50/p99 serving latency, achieved
# qps and the admission shed rate. -benchtime=1x — one multi-second window per
# rate is the measurement.
bench-serve:
	go test -bench='BenchmarkServeSustained' -benchtime=1x -timeout 20m -run '^$$' | go run ./cmd/benchjson -merge -o BENCH_results.json

ci: tier1 bench

# Non-test Go lines of the main module (perfbench is a module of its own and
# .bench_build holds its build state), the size figure each change reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' | xargs cat | wc -l
