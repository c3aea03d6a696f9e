GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet lint lint-fast test race race-full race-service grid incremental cluster parallel tier1 bench bench-json fuzz-short serve load load-short bench-compare

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the static gate: the repo-specific analyzers (docs/LINTING.md),
# go vet, and gofmt cleanliness.
lint: vet
	$(GO) run ./cmd/sdflint ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# lint-fast is the inner-loop variant: per-package analyzers only, skipping
# the module-wide interprocedural pass (callgraph + summaries) for speed.
lint-fast:
	$(GO) run ./cmd/sdflint -fast ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# race-full runs the concurrency-heavy packages under the race detector
# without -short (parallel experiment driver, oracle, fuzz harness).
race-full:
	$(GO) test -race ./internal/par/... ./internal/experiments/... ./internal/check/...

# race-service exercises the sdfd daemon stack (singleflight, cache,
# admission pool) under the race detector.
race-service:
	$(GO) test -race -count=2 ./internal/service/...

# grid validates the prefix-sharing plan executor: the planner-vs-direct
# differential property test under the race detector, plus the fuzzer's
# planner-path grid sweep over random graphs and the crasher corpus.
grid:
	$(GO) test -race -run 'TestPlan|TestPlannerDifferential|TestGrid' ./internal/pass/... ./internal/service/...
	$(GO) run ./cmd/sdffuzz -n 50 -seed 1
	cd cmd/sdffuzz && $(GO) run . -corpus

# incremental validates the persistent pass-node store: the 200-edit
# store-vs-cold differential property test and the store/durability suites
# under the race detector, plus the fuzzer's two-pass shared-store replay
# (second pass must be byte-identical with nonzero store hits).
incremental:
	$(GO) test -race -run 'TestStore|TestNodeStore|TestCodec|TestKind|TestDecode|TestPlanSecondRun|TestPlanGarbage' ./internal/pass/... ./internal/service/...
	$(GO) test -race -count=2 ./internal/nodestore/...
	cd cmd/sdffuzz && $(GO) run . -store -n 25 -seed 1

# parallel validates the partitioned runtime under the race detector: the
# partition/segment suites (including the 200-graph phased-vs-sequential
# differential), the barrier and phased-engine packages (real worker
# goroutines every period), the partition invariant oracles, and the
# fuzzer's partitioned grid sweep with its P=1 byte-identity check.
parallel:
	$(GO) test -race ./internal/partition/... ./internal/par/... ./internal/runtime/... ./internal/sim/...
	$(GO) test -race -run 'TestPartition|TestPhased|TestCorrupted|TestThreaded|TestPipelineCleanPartitioned' ./internal/check/...
	$(GO) run ./cmd/sdffuzz -n 50 -seed 2

# cluster is the sharded-daemon gate: the ring/peer-fetch/job/drain suites
# under the race detector (service + cluster packages), then a real 3-node
# cluster on local ports driven end to end — differential replay through
# every peer with cross-peer artifact fetch, a multi-target load smoke with
# per-peer accounting, and a graceful drain of one node.
cluster:
	$(GO) test -race -run 'TestCluster|TestJob|TestDrain' -count=2 ./internal/service/...
	$(GO) test -race -count=2 ./internal/cluster/...
	$(GO) build -o bin/sdfd ./cmd/sdfd
	$(GO) build -o bin/sdffuzz ./cmd/sdffuzz
	$(GO) build -o bin/sdfload ./cmd/sdfload
	./scripts/cluster-smoke.sh

# serve runs the compilation daemon on its default port.
serve:
	$(GO) run ./cmd/sdfd

# load-short is the saturation-harness smoke gate: the harness's unit and
# property suites under the race detector, then a real sdfload ramp against
# a race-enabled sdfd spawned on an ephemeral port, with -selfcheck gating
# on the open-loop invariants (monotone percentiles, every request accounted
# for, zero unclassified errors below the knee). Finally the written report
# must self-compare clean through sdfbench -compare.
load-short:
	$(GO) test -race ./internal/load/... ./internal/hdr/...
	$(GO) build -race -o bin/sdfd.race ./cmd/sdfd
	$(GO) build -o bin/sdfload ./cmd/sdfload
	./bin/sdfload -spawn ./bin/sdfd.race -short -selfcheck -label short -out LOAD_short.json
	$(GO) run ./cmd/sdfbench -compare LOAD_short.json LOAD_short.json >/dev/null

# load runs the full staged ramp against a locally spawned release-build
# sdfd and writes LOAD_dev.json (tune with LOAD_FLAGS, e.g.
# LOAD_FLAGS="-start-rps 100 -step-rps 100 -steps 10 -hold 15s").
LOAD_FLAGS ?=
load:
	$(GO) build -o bin/sdfd ./cmd/sdfd
	$(GO) build -o bin/sdfload ./cmd/sdfload
	./bin/sdfload -spawn ./bin/sdfd -selfcheck $(LOAD_FLAGS)

# bench-compare diffs a fresh quick trajectory against the committed
# baseline and fails on regressions beyond the (generous, cross-machine)
# threshold. BASELINE defaults to the checked-in file.
BASELINE ?= BENCH_2026-08-06.json
bench-compare:
	$(GO) run ./cmd/sdfbench -quick -json -out BENCH_ci.json >/dev/null
	$(GO) run ./cmd/sdfbench -compare -threshold 5 $(BASELINE) BENCH_ci.json

# tier1 is the merge gate: everything must pass before a change lands.
tier1: lint build test race

# bench is the benchmark's smoke test (~6 s): every bench/ workload in
# process at smoke size, untraced and traced, with its correctness gates and
# its metric names and units checked against BENCHMARK.json. bench/ is a
# module of its own, so the root go test ./... does not run it. A real
# measurement is bash bench/run.sh (see bench/README.md).
bench:
	cd bench && $(GO) test ./...

# bench-json writes the BENCH_<date>.json performance trajectory file.
bench-json:
	$(GO) run ./cmd/sdfbench -quick -json >/dev/null

# fuzz-short gives every native fuzz target a bounded budget (FUZZTIME per
# target) on top of the checked-in corpora — the same loop CI runs.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sdfio
	$(GO) test -run='^$$' -fuzz=FuzzPipeline -fuzztime=$(FUZZTIME) ./internal/check
