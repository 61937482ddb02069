# Tier-1 gate: `make check` is what CI (and every PR) must keep green.
GO       ?= go
FUZZTIME ?= 10s

.PHONY: check vet bench-vet static build test race race-stream test-recovery test-diffharness test-diffharness-incremental test-registry test-labels trace-smoke fuzz-smoke bench bench-json bench-diff bench-diff-smoke

check: vet bench-vet static build race race-stream test-recovery test-diffharness test-diffharness-incremental test-registry test-labels trace-smoke bench-diff-smoke fuzz-smoke

vet:
	$(GO) vet ./...

# bench/ is a nested module (the benchmark harness), so ./... never
# compiles it; vet it on its own against this checkout, offline.
bench-vet:
	cd bench && GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod $(GO) vet .

# staticcheck is optional tooling: run it when installed, skip loudly
# (but successfully) when not, so `make check` works on a bare toolchain.
static:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 120s ./...

race:
	$(GO) test -race -timeout 120s ./...

# The stream and obs packages hold the timing-sensitive reliability/chaos
# tests and the lock-free histogram, and temporal/fragment hold the
# worker pool and the materialization cache; a second -count=2 pass under
# the race detector is the deflake gate.
race-stream:
	$(GO) test -race -count=2 -timeout 120s ./internal/stream ./internal/obs ./internal/temporal ./internal/fragment ./internal/registry

# The crash-point harness: enumerate every filesystem operation in an
# ingest/snapshot/compact run, kill the store at each one, and prove
# recovery yields exactly the committed prefix (never losing an
# acknowledged append), under the race detector.
test-recovery:
	$(GO) test -race -run '^(TestCrashPointHarness|TestCrashPointHarnessReplaysTwice)$$' -timeout 300s ./internal/segstore

# The metamorphic differential harness: >=200 generated store/query
# pairs, every plan x parallelism x cache combination, byte-identical
# results, under the race detector.
test-diffharness:
	$(GO) test -race -run '^TestDiffHarness$$' -timeout 300s .

# The incremental cell: the same >=200 generated pairs REPLAYED one
# arrival at a time, incremental deltas byte-identical to full
# re-evaluation across the strategy grid, plus the arrival-order
# metamorphic suite.
test-diffharness-incremental:
	$(GO) test -race -run '^(TestDiffHarnessIncremental|TestIncrementalArrivalOrder)$$' -timeout 600s .

# The registry-equivalence cell: 200+ generated store/query pairs
# replayed through the multi-tenant registry with 2..32 overlapping
# standing registrations, every delta stream and final standing result
# byte-identical to independent continuous queries, plus the churn/soak
# and shared-cost monotonicity suites, under the race detector.
test-registry:
	$(GO) test -race -run '^(TestRegistryEquivalence|TestRegistrySharedCostMonotonic)$$' -timeout 600s .
	$(GO) test -race -run '^(TestRegistryChurnUnderFire|TestRegistryAdmissionOverload)$$' -timeout 120s ./internal/registry

# The QaC++ label cell: the prefix labeler's property suite (document
# order without hole walks, arrival-order stability, generation
# invalidation on ingest/compaction), the crash-recover-then-relabel
# case, and the four-plan stats chain (FillersScanned QaC++ <= QaC+ <
# QaC < CaQ with HolesResolved pinned to 0 under QaC++), under the race
# detector.
test-labels:
	$(GO) test -race -run '^TestLabel' -timeout 120s ./internal/fragment
	$(GO) test -race -run '^TestRecoverThenLabel$$' -timeout 120s ./internal/segstore
	$(GO) test -race -run '^(TestEvalStatsPopulated|TestFillersScannedMonotonic|TestTSIDIndexHitsOnlyUnderQaCPlus)$$' -timeout 120s .

# End-to-end tracing acceptance: a chaos burst with the flight recorder
# attached at every layer must produce a complete publish→fsync→eval→
# fan-out→delivery span tree under one trace id, survive a forced
# reconnect, and leak no goroutines — all under the race detector.
trace-smoke:
	$(GO) test -race -run '^TestTraceSmoke$$' -timeout 120s .

# A short deterministic shake of each fuzz target; longer runs are
# `make fuzz-smoke FUZZTIME=5m`. `-run '^$'` skips the unit tests that
# already ran under `race`.
fuzz-smoke:
	$(GO) test ./internal/fragment -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz '^FuzzFrameRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/segstore -run '^$$' -fuzz '^FuzzSegmentReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xcql -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/registry -run '^$$' -fuzz '^FuzzQueryAPIRequest$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test . -run '^$$' -fuzz '^FuzzIncrementalArrival$$' -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench=. -benchmem

# Snapshot the Figure-4 + selectivity + continuous + parallel/cache
# benchmarks (quick scales) as JSON — cost counters and latency quantiles
# included — the cross-PR performance trajectory. Compare two snapshots
# with bench-diff.
BENCHOUT ?= BENCH_pr10.json
bench-json:
	( $(GO) test -run '^$$' -bench '^(BenchmarkFigure4|BenchmarkPlanGrid|BenchmarkSelectivity|BenchmarkContinuous|BenchmarkParallelCache|BenchmarkRecovery|BenchmarkSnapshotBootstrap|BenchmarkLabelsAfterAdd)$$' -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkIncrementalContinuous$$' -benchtime 300x -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkRegistryFanout$$' -benchtime 300x -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkTracePropagation$$' -benchmem -short . ) \
		| $(GO) run ./cmd/benchjson > $(BENCHOUT)

# Regression table between two snapshots:
#   make bench-diff OLD=BENCH_pr4.json NEW=BENCH_pr5.json
OLD ?= BENCH_pr4.json
NEW ?= $(BENCHOUT)
bench-diff:
	$(GO) run ./cmd/benchjson -diff $(OLD) $(NEW)

# check-time smoke: diff the checked-in snapshots against themselves so
# the loader and table renderer stay working without rerunning benchmarks.
bench-diff-smoke:
	@$(GO) run ./cmd/benchjson -diff BENCH_pr3.json BENCH_pr3.json >/dev/null
	@echo "bench-diff smoke ok"
