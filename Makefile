# Developer entry points. Everything here is a plain go tool invocation
# or the repo benchmark's own command — the Makefile only names the
# workflows CI and DESIGN.md refer to.

GO ?= go

.PHONY: all build test race check fmt vet examples validate bench bench-ladder bench-check bench-smoke profile-serving cluster-e2e

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
# the monitor-vs-oracle error table (talus-exp's oracle artefact) CI
# uploads as an artifact.
validate:
	$(GO) test -short -run 'TestMonitorMatchesOracle|TestAnalyticMatchesStackSim|TestHullIsLowerConvexEnvelope|TestTalusRecombinesToOracle|TestGoldenOracleCurves' -v ./internal/oracle
	$(GO) test -run 'TestImportChampSim|TestParseText' ./internal/trace
	$(GO) run ./cmd/talus-exp -exp oracle -scale quick > ORACLE_errors.md

# bench runs the repo benchmark (BENCHMARK.json): its four workloads, one
# after the other, each ending in a one-line JSON result with the host
# stamp. This is the one way numbers quoted in README/DESIGN/EXPERIMENTS
# are produced; to compare two commits, alternate runs of each (see
# bench/README.md). Seed, length and tracing are fixed on purpose.
bench:
	@for w in store-cliff store-churn http-hot cluster-hop; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 12 --trace 0 || exit 1; \
	done

# bench-ladder is the traced run of the headline workload: the per-layer
# ladder (cache → core → monitor → adaptive → store → handler → socket →
# proxied hop, with the oracle bracket) written to
# bench/out/trace-store-cliff.json.
bench-ladder:
	bash bench/run.sh --workload store-cliff --seed 1 --seconds 12 --trace 1

# bench-check vets and tests bench/, the repo benchmark (BENCHMARK.json).
# It is a module of its own that imports talus/internal/..., so the root
# `go build ./...` never compiles it: this is the target that notices
# when an API change here breaks the benchmark.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# bench-smoke is the CI micro-benchmark pass: every `go test -bench`
# benchmark once, reduced scale. These are development aids with no
# committed baseline — `make bench` is where tracked numbers come from.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# profile-serving captures cpu and alloc profiles of the serving hot
# path at the benchmark's own GOMAXPROCS=2; epoch reconfigurations carry
# the pprof label talus=epoch-step (see EXPERIMENTS.md "Profiling the
# serving path"). The four store-side benchmarks time the path served
# requests take: one shard lock per cache access, one monitor lock per
# sampled access. BenchmarkServeGet (internal/serve) times a loopback GET
# on a connection the handler owns and through net/http's server; a
# profile covers one package, so it writes its own serving-http files.
# Inspect with: go tool pprof -tagfocus talus=epoch-step profiles/serving.test profiles/serving.cpu.pprof
PROFILE_DIR ?= profiles
profile-serving:
	mkdir -p $(PROFILE_DIR)
	GOMAXPROCS=2 $(GO) test -run '^$$' \
		-bench 'StoreGet|StoreSet|AdaptiveAccess|ShadowedShardedAccess' \
		-benchtime 2s -benchmem \
		-cpuprofile $(PROFILE_DIR)/serving.cpu.pprof \
		-memprofile $(PROFILE_DIR)/serving.mem.pprof \
		-o $(PROFILE_DIR)/serving.test .
	GOMAXPROCS=2 $(GO) test -run '^$$' \
		-bench 'ServeGet' \
		-benchtime 2s -benchmem \
		-cpuprofile $(PROFILE_DIR)/serving-http.cpu.pprof \
		-memprofile $(PROFILE_DIR)/serving-http.mem.pprof \
		-o $(PROFILE_DIR)/serving-http.test ./internal/serve
	@echo "wrote $(PROFILE_DIR)/serving{,-http}.{cpu,mem}.pprof; inspect with:"
	@echo "  go tool pprof $(PROFILE_DIR)/serving.test $(PROFILE_DIR)/serving.cpu.pprof"

# cluster-e2e runs the cluster acceptance tests — deterministic routing
# on a live 3-node fleet and the 3-node vs single-node-at-3x hit-ratio
# comparison — race-clean.
cluster-e2e:
	$(GO) test -race -run 'TestCluster' ./internal/serve ./internal/loadgen
