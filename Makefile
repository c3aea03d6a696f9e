GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet lint lint-fast test race race-full race-service grid incremental cluster parallel tier1 bench fuzz-short serve load load-short bench-compare

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
# differential property test and the direct-vs-plan cancellation parity
# tests under the race detector, plus the fuzzer's planner-path grid sweep
# over random graphs and the crasher corpus.
grid:
	$(GO) test -race -run 'TestPlan|TestPlannerDifferential|TestGrid|TestCompile.*Context' ./internal/pass/... ./internal/service/... ./internal/core/...
	$(GO) run ./cmd/sdffuzz -n 50 -seed 1
	cd cmd/sdffuzz && $(GO) run . -corpus

# incremental validates the persistent pass-node store: the 200-edit
# store-vs-cold differential property test and the store/durability suites
# under the race detector, plus the fuzzer's two-pass shared-store replay
# (second pass must be byte-identical with nonzero store hits).
incremental:
	$(GO) test -race -run 'TestStore|TestNodeStore|TestCodec|TestKind|TestDecode|TestPlanSecondRun|TestPlanGarbage|TestPlanCorrupt' ./internal/pass/... ./internal/service/...
	$(GO) test -race -count=2 ./internal/nodestore/...
	cd cmd/sdffuzz && $(GO) run . -store -n 25 -seed 1

# parallel validates the partitioned runtime under the race detector: the
# partition/segment suites (including the 200-graph phased-vs-sequential
# differential), the parker package, the one executor per layer that runs
# both the P=1 and the phased program (the runtime spawns real worker
# goroutines every period at P>=2 and its self-timed tests — a producer
# that fails, panics or exits under a waiting consumer, and the
# seeded-jitter differential — run in its package; sim runs the same
# self-timed protocol on its caller's goroutine and stays in both legs, so
# that a goroutine added to it is raced too; codegen's emitters share
# their buffer, body and delay writers, gated by
# TestThreadedCMatchesReference), the partition invariant and drain
# oracles, and the fuzzer's partitioned grid sweep with its P=1
# byte-identity check. The parker and both executors run again at
# GOMAXPROCS=1, where waiters park at once and more workers than Ps share
# one P (-count=1: the test cache does not key on GOMAXPROCS).
parallel:
	$(GO) test -race ./internal/partition/... ./internal/par/... ./internal/runtime/... ./internal/sim/... ./internal/codegen/...
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/par/... ./internal/runtime/... ./internal/sim/...
	$(GO) test -race -run 'TestPartition|TestPhased|TestCorrupted|TestDrains|TestThreaded|TestPipelineCleanPartitioned' ./internal/check/...
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

# bench-compare is the paired perf gate (scripts/bench-ab.sh): five
# alternating pairs of 2-s bench/run.sh passes over every workload, from a
# worktree of BASE and from this tree. It fails when bench/run.sh -compare
# judges a metric worse under BENCHMARK.json's bounds, or when a metric is
# worse by more than its bound in every pair. The default BASE measures
# uncommitted changes; CI passes the pull request's base commit.
BASE ?= HEAD
bench-compare:
	bash scripts/bench-ab.sh $(BASE)

# tier1 is the merge gate: everything must pass before a change lands.
tier1: lint build test race

# bench is the benchmark's smoke test (~6 s): every bench/ workload in
# process at smoke size, untraced and traced, with its correctness gates and
# its metric names and units checked against BENCHMARK.json. bench/ is a
# module of its own, so the root go test ./... does not run it. Then one
# short real pass of bench/run.sh, so its build and the benchmark's
# correctness gates run as a measurement would (see bench/README.md).
bench:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload compile-cold --seconds 2 --trace 0

# fuzz-short gives every native fuzz target a bounded budget (FUZZTIME per
# target) on top of the checked-in corpora — the same loop CI runs.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sdfio
	$(GO) test -run='^$$' -fuzz=FuzzPipeline -fuzztime=$(FUZZTIME) ./internal/check
	$(GO) test -run='^$$' -fuzz=FuzzIntersects -fuzztime=$(FUZZTIME) ./internal/lifetime
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeLife$$' -fuzztime=$(FUZZTIME) ./internal/pass
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSched$$' -fuzztime=$(FUZZTIME) ./internal/pass
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeAlloc$$' -fuzztime=$(FUZZTIME) ./internal/pass
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeOrder$$' -fuzztime=$(FUZZTIME) ./internal/pass
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePartition$$' -fuzztime=$(FUZZTIME) ./internal/pass
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSegalloc$$' -fuzztime=$(FUZZTIME) ./internal/pass
	$(GO) test -run='^$$' -fuzz='^FuzzAPGAN$$' -fuzztime=$(FUZZTIME) ./internal/apgan
	$(GO) test -run='^$$' -fuzz='^FuzzParseFrame$$' -fuzztime=$(FUZZTIME) ./internal/nodestore
	$(GO) test -run='^$$' -fuzz='^FuzzArtifactString$$' -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzCompileRequest$$' -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzGridRequest$$' -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzWireForm$$' -fuzztime=$(FUZZTIME) ./internal/service
