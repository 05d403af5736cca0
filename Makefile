GO ?= go
BENCH_TOLERANCE ?= 0.10

.PHONY: build vet lint lint-baseline test race fuzz fuzz-scenario fuzz-trace fuzz-events fuzz-bench fuzz-engine coverfloor chaos verify bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism lint suite (internal/lint) plus go vet: eight per-package
# analyzers, the whole-program reachability pass (transitive walltime /
# globalrand with call chains), and the hotalloc escape-analysis gate,
# ratcheted against the checked-in baseline. See DESIGN.md "Static
# analysis".
lint:
	$(GO) run ./cmd/antidope-lint -baseline lint.baseline.json ./...

# Regenerate the ratchet baseline. Only for adopting the linter on a tree
# with pre-existing findings; the checked-in baseline is empty and should
# stay that way.
lint-baseline:
	$(GO) run ./cmd/antidope-lint -write-baseline lint.baseline.json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage-guided smoke of the full simulator; CI runs the same budget.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzSim -fuzztime=30s ./internal/core

# Scenario-DSL fuzz smoke: arbitrary bytes through parse -> normalize ->
# marshal -> compile; asserts no panics, canonical-form fixed point, and
# deterministic compilation. No simulations run, so iterations are cheap.
fuzz-scenario:
	$(GO) test -run='^$$' -fuzz=FuzzScenario -fuzztime=30s ./internal/scenario

# Trace-CSV loader fuzz smoke: arbitrary bytes and intervals through
# trace.LoadCSV; malformed input must error, accepted input must give
# finite utilization samples in [0,1].
fuzz-trace:
	$(GO) test -run='^$$' -fuzz=FuzzLoadCSV -fuzztime=30s ./internal/trace

# Events-CSV parser fuzz smoke: arbitrary bytes through obs.ParseCSVEvents;
# accepted input must survive parse -> WriteCSV -> parse unchanged, and its
# offline timeline rebuild (Timeline.Replay) must error or stay bounded.
fuzz-events:
	$(GO) test -run='^$$' -fuzz=FuzzParseCSVEvents -fuzztime=30s ./internal/obs

# Benchmark-output parser fuzz smoke: arbitrary bytes through benchregress's
# parse; malformed numbers must error, accepted entries must be finite and
# non-negative.
fuzz-bench:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./cmd/benchregress

# Event-engine fuzz smoke: random Schedule/Cancel/Reschedule/Step/DrainAt/
# RunUntil sequences (stale and zero handles included) against a naive
# sorted-slice reference; firing order, Pending() and handle state must match.
fuzz-engine:
	$(GO) test -run='^$$' -fuzz=FuzzEngineOrder -fuzztime=30s ./internal/simtime

# Statement-coverage floor for the scenario DSL front end; mirrors the CI
# gate so a lost test trips locally too.
coverfloor:
	sh scripts/coverfloor.sh 80 ./internal/scenario

# Fault-injection suite under the race detector plus a fuzz smoke that feeds
# malformed fault schedules into full runs; mirrors the CI chaos job. The
# Net|Partition patterns pull in the network-condition suite (link loss,
# latency, partitions, retry/backoff) and TestResilience covers both the
# fault and network-chaos sweep goldens. See DESIGN.md "Fault model &
# graceful degradation".
chaos:
	$(GO) test -race -count=1 ./internal/faults
	$(GO) test -race -count=1 -run 'Fault|Crash|Telemetry|Firewall|Breaker|Failed|Fade|Down|Recovered|Net|Partition' ./internal/core ./internal/server ./internal/netlb ./internal/battery ./internal/defense
	$(GO) test -race -count=1 -run 'TestResilience' ./internal/experiments
	$(GO) test -run='^$$' -fuzz=FuzzFaultSchedule -fuzztime=30s ./internal/core

# Tier-1 verify: what every PR must keep green. The lint target already
# includes go vet, and race subsumes plain test.
verify: build lint race

# Hot-path micro-benchmarks plus the quick-suite macro run, gated against the
# checked-in baseline (BENCH_3.json). Writes the fresh numbers to
# BENCH_new.json; fails when any ns/op regresses more than BENCH_TOLERANCE.
# See EXPERIMENTS.md "Profiling and benchmark regression".
bench:
	{ \
	  $(GO) test -run='^$$' -bench 'BenchmarkScheduleAndRun|BenchmarkScheduleFireSteady|BenchmarkScheduleCancel|BenchmarkScheduleReschedule|BenchmarkDrainBatch' -benchmem -benchtime=2s ./internal/simtime; \
	  $(GO) test -run='^$$' -bench 'BenchmarkGenerator|BenchmarkMixNext' -benchmem -benchtime=2s ./internal/workload; \
	  $(GO) test -run='^$$' -bench 'BenchmarkRouteSplit' -benchmem -benchtime=2s ./internal/netlb; \
	  $(GO) test -run='^$$' -bench 'BenchmarkAdvance$$|BenchmarkNextCompletion|BenchmarkPowerAt|BenchmarkAdvanceCompleting' -benchmem -benchtime=2s ./internal/server; \
	  $(GO) test -run='^$$' -bench 'BenchmarkModelPower$$|BenchmarkModelPowerLadder|BenchmarkTablePowerLadder' -benchmem -benchtime=2s ./internal/power; \
	  $(GO) test -run='^$$' -bench 'BenchmarkPercentile' -benchmem -benchtime=2s ./internal/stats; \
	  $(GO) test -run='^$$' -bench 'BenchmarkBusEmit|BenchmarkRecorderRecord|BenchmarkTimelineEmit' -benchmem -benchtime=2s ./internal/obs; \
	  $(GO) test -run='^$$' -bench 'BenchmarkAnalyze' -benchmem -benchtime=2s ./internal/obs/analyze; \
	  $(GO) test -run='^$$' -bench 'BenchmarkLintLoad' -benchmem -benchtime=5x ./internal/lint; \
	  $(GO) test -run='^$$' -bench '^BenchmarkRun$$/^fig3-udp$$' -benchmem -benchtime=5x . ; \
	  $(GO) test -run='^$$' -bench 'BenchmarkAllQuick/sequential' -benchtime=3x . ; \
	} | $(GO) run ./cmd/benchregress -baseline BENCH_3.json -tolerance $(BENCH_TOLERANCE) -out BENCH_new.json
