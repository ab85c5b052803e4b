# Developer entry points. Everything here is plain go tool invocations —
# the Makefile only names the workflows CI and DESIGN.md refer to.

GO ?= go

.PHONY: all build test race check fmt vet examples validate bench-smoke bench-check bench-serving bench-serving-matrix bench-compare profile-serving cluster-demo cluster-e2e

all: check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check = the CI hygiene gate: formatting, vet, and a full build.
check: fmt vet build

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# examples compiles and runs every Example function (their Output
# comments are asserted), keeping the documented snippets honest.
examples:
	$(GO) test -run '^Example' ./...

# validate runs the ground-truth gate: the exact-LRU oracle cross-checks
# (monitor vs oracle, analytic vs stack sim, hull/Talus identities,
# golden curves) in -short mode, the external-trace importer round-trip
# on the committed ChampSim fixture, and regenerates ORACLE_errors.md —
# the monitor-vs-oracle error table CI uploads as an artifact.
validate:
	$(GO) test -short -run 'TestMonitorMatchesOracle|TestAnalyticMatchesStackSim|TestHullIsLowerConvexEnvelope|TestTalusRecombinesToOracle|TestGoldenOracleCurves' -v ./internal/oracle
	$(GO) test -run 'TestImportChampSim|TestParseText' ./internal/trace
	$(GO) run ./cmd/talus-oracle -accesses 393216 -o ORACLE_errors.md

# bench-smoke is the CI benchmark pass: every benchmark once, reduced scale.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# bench-check vets and tests bench/, the repo benchmark (BENCHMARK.json).
# It is a module of its own that imports talus/internal/..., so the root
# `go build ./...` never compiles it: this is the target that notices
# when an API change here breaks the benchmark.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# bench-serving regenerates BENCH_serving.json, the serving hot path's
# tracked perf baseline (store Get/Put, adaptive AccessBatch, monitor).
bench-serving:
	$(GO) run ./cmd/talus-bench -out BENCH_serving.json

# bench-serving-matrix regenerates BENCH_serving.json at both tracked
# GOMAXPROCS shapes: the single-proc baseline first (overwriting), then
# the contended procs=$(BENCH_PROCS) rows appended by (name, procs).
BENCH_PROCS ?= 4
bench-serving-matrix:
	GOMAXPROCS=1 $(GO) run ./cmd/talus-bench -out BENCH_serving.json
	GOMAXPROCS=$(BENCH_PROCS) $(GO) run ./cmd/talus-bench -append -out BENCH_serving.json

# bench-compare reruns the serving benchmarks and diffs them against the
# committed BENCH_serving.json, keyed by (name, procs); it exits
# non-zero when any benchmark is more than BENCH_THRESHOLD (fractional)
# slower than the baseline. CI runs this as a non-blocking lane so the
# delta table is in every run's log.
BENCH_THRESHOLD ?= 0.10
bench-compare:
	$(GO) run ./cmd/talus-bench -compare -threshold $(BENCH_THRESHOLD) -out BENCH_serving.json

# profile-serving captures cpu and alloc profiles of the serving hot
# path; epoch reconfigurations carry the pprof label talus=epoch-step
# (see EXPERIMENTS.md "Profiling the serving path").
# Inspect with: go tool pprof -tagfocus talus=epoch-step profiles/serving.test profiles/serving.cpu.pprof
PROFILE_DIR ?= profiles
profile-serving:
	mkdir -p $(PROFILE_DIR)
	GOMAXPROCS=$(BENCH_PROCS) $(GO) test -run '^$$' \
		-bench 'StoreGet|StoreSet|AdaptiveAccessBatch|ShadowedShardedBatch' \
		-benchtime 2s -benchmem \
		-cpuprofile $(PROFILE_DIR)/serving.cpu.pprof \
		-memprofile $(PROFILE_DIR)/serving.mem.pprof \
		-o $(PROFILE_DIR)/serving.test .
	@echo "wrote $(PROFILE_DIR)/serving.{cpu,mem}.pprof; inspect with:"
	@echo "  go tool pprof $(PROFILE_DIR)/serving.test $(PROFILE_DIR)/serving.cpu.pprof"

# cluster-demo runs the 3-node ring + closed-loop load shape in one
# process (examples/cluster); cluster-e2e runs the acceptance tests —
# deterministic routing on a live 3-node fleet and the 3-node vs
# single-node-at-3x hit-ratio comparison — race-clean.
cluster-demo:
	$(GO) run ./examples/cluster

cluster-e2e:
	$(GO) test -race -run 'TestCluster' ./internal/serve ./internal/loadgen
