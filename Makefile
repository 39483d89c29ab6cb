GO ?= go
BIN := bin
FUZZTIME ?= 10s
# Benchtime for the tracked benchmark suites. Fast benchmarks accumulate
# enough iterations for stable numbers; the experiment benchmarks
# (Fig*/Table*) still run a single iteration since one exceeds the budget.
BENCHTIME ?= 100ms

# Recipes pipe test output into tooling (see bench); pipefail keeps a
# failing `go test` from being masked by a succeeding consumer.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build test race vet bench bench-service bench-engine bench-engine-cpu bench-serving contract metrics-lint fuzz corpus clean

all: build test

build:
	$(GO) build -o $(BIN)/ ./cmd/...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Runs the root benchmark harness at a stable benchtime and records the
# parsed results in two reports tracked across PRs: BENCH_service.json
# (narration pipeline + serving layer) and BENCH_engine.json (substrate
# engine executor/planner, including the streaming-vs-reference pairs).
bench: bench-service bench-engine

# The beam/paraphrase ablations are narration-pipeline benchmarks and stay
# in the service report; the engine report gets the executor/planner suites
# and the plan-shape/access-path/ordering ablations.
bench-service:
	$(GO) test -run xxx -bench '^Benchmark(Fig|Table|Exp|US|Parser|Rule|Neural|Explain|Pool|Service|BLEU|AblationBeam|AblationParaphrase)' -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson -out BENCH_service.json

# Runs at an explicit -cpu 2, the GOMAXPROCS of the committed report: go
# test suffixes benchmark names with it, and the CI allocation gate
# (benchjson -compare -gate) pairs benchmarks by full name, so a runner
# with more cores must still produce the committed names.
bench-engine:
	$(GO) test -run xxx -bench '^Benchmark(Exec|Planner|AblationJoin|AblationIndex|AblationSeqScan|AblationOrdering)' -cpu 2 -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson -out BENCH_engine.json

# The morsel-parallel suite at pinned core counts: the -cpu 1 report is
# the serial-parity check, the -cpu 4 report the scaling one. Each report
# records the GOMAXPROCS it ran at, and benchjson -compare warns when two
# reports come from different core counts, so cross-comparing the
# variants is possible but flagged.
bench-engine-cpu:
	$(GO) test -run xxx -bench '^BenchmarkExec(Parallel|LimitShortCircuit)' -cpu 1 -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson -out BENCH_engine.cpu1.json
	$(GO) test -run xxx -bench '^BenchmarkExec(Parallel|LimitShortCircuit)' -cpu 4 -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson -out BENCH_engine.cpu4.json

bench-serving:
	$(GO) test -run xxx -bench 'BenchmarkServiceNarrate' -benchmem .

# Contract tests: boot the daemon surface on a real listener and replay
# the recorded v1+v2 request corpus (internal/httpapi/testdata/corpus)
# against it, plus a live NDJSON streaming session. Regenerate the
# recordings with `go test ./internal/httpapi -run TestCorpus -update`.
contract:
	$(GO) test ./internal/httpapi -run 'TestContract|TestCorpus' -count=1 -v

# Boots a real lanternd, exercises the serving surface once, scrapes
# GET /metrics, and lints the exposition against the Prometheus text
# format (cmd/promlint wraps internal/obs.Lint). METRICS_ADDR picks the
# listen address if 18080 is taken.
METRICS_ADDR ?= 127.0.0.1:18080
metrics-lint: build
	$(BIN)/lanternd -addr $(METRICS_ADDR) -db tpch -scale 0.01 & \
	trap 'kill $$! 2>/dev/null' EXIT; \
	$(BIN)/promlint -url http://$(METRICS_ADDR)/metrics -wait 30s

# Go-native fuzzing over the four plan-dialect parsers, seeded from the
# golden corpus ($(FUZZTIME) per target).
fuzz:
	$(GO) test ./internal/plan -run '^$$' -fuzz FuzzParsePostgresJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/plan -run '^$$' -fuzz FuzzParseSQLServerXML -fuzztime $(FUZZTIME)
	$(GO) test ./internal/plan -run '^$$' -fuzz FuzzParseMySQLJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/plan -run '^$$' -fuzz FuzzParseNativeJSON -fuzztime $(FUZZTIME)

# Regenerates the cross-dialect golden corpus: inputs from the substrate
# engine, then expectations via the corpus runners.
corpus:
	$(GO) run ./internal/plan/testdata/gen
	$(GO) test ./internal/plan ./internal/pool ./internal/service -run Corpus -update

clean:
	rm -rf $(BIN)
