# Standard entry points for building and validating the reproduction.
#
#   make build      compile every package and command
#   make test       full test suite (tier-1 gate), includes the chaos matrix
#   make chaos      fault-injection matrix: every impairment class and the
#                   stacked combo, plus the loss-recovery acceptance bar
#   make race       race-detector pass over the concurrent pipeline
#   make crash-matrix  process-crash fault injection: kill a campaign child
#                   at random shard boundaries, resume from checkpoints,
#                   assert digest equality against the cold run
#   make vet        static checks
#   make bench      campaign benchmarks, recorded as BENCH_PR1.json
#   make bench-sim  simulated-campaign + event-core benchmarks (BENCH_PR2 set)
#   make bench-batch batched-drain benchmarks: StepBatch vs Step (PR3 set)
#   make bench-sim-par parallel vs serial sharded campaigns (BENCH_PR4.json)
#   make profile    bench-sim under -cpuprofile/-memprofile for pprof
#                   (PROFILE_PKG / PROFILE_BENCH select other suites)
#   make cover      test suite with coverage profile + per-function summary
#   make doccheck   every package documented (go vet + scripts/doccheck)
#   make smoke      2×2 orsweep grid: pinned baseline digest + pool invariance
#   make serve-smoke  same grid through the orserved HTTP API: pinned
#                   digest, digest-cache hit, clean SIGTERM drain
#   make fabric-smoke  same grid through a real coordinator + 3 worker
#                   processes: byte-identical to single-process, pinned
#                   digest, and a SIGKILLed worker's shard must requeue
#                   and converge
#   make fuzz-smoke every native fuzz target (FuzzUnpack, FuzzStreamParser,
#                   FuzzAppendName, capture.FuzzReader) for 10s each
#   make benchdiff  fresh benchmarks vs checked-in baselines (regression gate)
#   make perfbench-test  the perfbench harness's own tests (a separate
#                   module that `go test ./...` never builds)
#   make ci         exactly what .github/workflows/ci.yml runs

GO ?= go
BENCH_OUT ?= BENCH_PR1.json
BENCH_FRESH ?= bench_fresh.json
# Repetitions per benchmark; benchdiff collapses them to per-metric minima,
# so more runs means less scheduler noise in the gate.
BENCH_COUNT ?= 3
PROFILE_DIR ?= profiles
# Profile target knobs: which package and which benchmarks to profile.
PROFILE_PKG ?= .
PROFILE_BENCH ?= CampaignSimulated
COVER_OUT ?= cover.out
SMOKE_DIR ?= smoke-out
FABRIC_LOG_DIR ?= fabric-smoke-logs

# The loss-free 2018 cell of the smoke grid below, pinned. It is the
# FaultDigest of RunSimulation(year=2018, shift=14, seed=1) — the same
# digest family internal/core's golden tests and internal/sweep's
# TestSweepGoldenCell pin. Re-derive by running the smoke grid and reading
# cells[0].digest from the matrix JSON if a change legitimately re-baselines
# the campaign bytes.
SMOKE_BASELINE := d19bd873ab802eecb15921fb73145c7ca0ae4b5eed4d5b6aa670791ad1557d47

.PHONY: all build test chaos race crash-matrix vet bench bench-sim bench-batch benchdiff profile cover doccheck smoke serve-smoke fabric-smoke fuzz-smoke perfbench-test ci

all: build vet test

build:
	$(GO) build ./...

# `go test ./...` already runs the chaos matrix (it lives in internal/core's
# test suite), so the tier-1 gate covers adverse networks by default; the
# chaos target exists to iterate on just that suite.
test:
	$(GO) test ./...

# Fault-injection gate on its own: the impairment matrix (determinism,
# accounting invariants, bounded event queue per scenario), the 30%-burst-
# loss recovery acceptance test, and the pinned adverse-network golden.
chaos:
	$(GO) test -count=1 -run 'TestChaos|TestFaultGolden' ./internal/core/ \
		-v -timeout 10m

# The concurrent paths: the parallel synthesis engine, the sharded
# simulation fan-out (worker pool over private sub-simulations, DESIGN.md
# §12), the accumulator/stats merges, the sweep's cell pool, the
# checkpoint store feeding off shard workers (DESIGN.md §13), and the
# signal-to-context bridge. Each netsim.Sim, prober and DNS engine is
# single-threaded by design — -race over them guards against a future
# change accidentally sharing state across sub-simulations (everything a
# shard touches after spawn must be private or read-only; the
# worker-equivalence tests pin the bytes, this gate pins the memory model).
race:
	$(GO) test -race ./internal/core/... ./internal/analysis/... \
		./internal/netsim/... ./internal/prober/... ./internal/dnssrv/... \
		./internal/obs/... ./internal/sweep/... ./internal/sigctx/... \
		./internal/serve/... ./internal/fabric/...

# Process-crash fault injection (DESIGN.md §13): the crash matrix re-execs
# the test binary as a campaign child, kills it with SIGKILL at seeded-random
# shard boundaries (≥3 distinct kill points per scenario, both calibration
# years plus the stacked chaos impairments), resumes from the on-disk
# checkpoints, and requires the final digest to equal the never-crashed run.
crash-matrix:
	$(GO) test -count=1 -run 'TestCrash' ./internal/core/ -v -timeout 10m

vet:
	$(GO) vet ./...

# Coverage over the whole module; the tail line is the total.
cover:
	$(GO) test -short -coverprofile $(COVER_OUT) ./...
	$(GO) tool cover -func $(COVER_OUT) | tail -n 1

# Documentation gate: go vet plus a parser-level check that every package
# under internal/ and cmd/ carries a package doc comment, that the API
# reference matches the router, and that each CLI's README flag table
# matches the flags it actually registers.
doccheck: vet
	$(GO) run ./scripts/doccheck -api API.md -routes internal/serve/router.go \
		-flagdoc README.md -flagcli cmd/orsweep -flagcli cmd/orserved \
		-flagcli cmd/orfabric \
		./internal ./cmd ./scripts

bench:
	$(GO) test -run '^$$' -bench 'CampaignSynthetic(Serial|Parallel)' -benchmem -count $(BENCH_COUNT) . \
		| tee /dev/stderr | $(GO) run ./scripts/bench2json > $(BENCH_OUT)

# Full simulated campaigns (both calibration years) plus the event-core
# micro-benchmarks that the PR2 optimization targets.
bench-sim:
	$(GO) test -run '^$$' -bench 'CampaignSimulated' -benchmem -count $(BENCH_COUNT) .
	$(GO) test -run '^$$' -bench 'EventThroughput|TimerEnqueueDequeue|HostLookup' \
		-benchmem -count $(BENCH_COUNT) ./internal/netsim

# The sharded simulation head-to-head: the default parallel campaign
# (Workers=0, one goroutine per core) against the pinned serial schedule
# (Workers=1). Records the PR4 baseline consumed by make benchdiff.
bench-sim-par:
	$(GO) test -run '^$$' -bench 'CampaignSimulated(Serial)?20' -benchmem -count $(BENCH_COUNT) . \
		| tee /dev/stderr | $(GO) run ./scripts/bench2json > BENCH_PR4.json

# The batched event-core drains head-to-head: the same fan-out workload
# through the single-event Step loop and the same-timestamp StepBatch drain.
bench-batch:
	$(GO) test -run '^$$' -bench 'StepDrain|StepBatchDrain' \
		-benchmem -count $(BENCH_COUNT) ./internal/netsim

# Benchmark-regression gate: run the committed benchmark suites, fold the
# output through bench2json (repeat runs collapse to per-metric minima), and
# compare against the newest checked-in BENCH_PR<n>.json baseline. Fails on
# >25% ns/op growth or >0.1% allocs/op growth for any benchmark both sides
# know (zero-alloc benchmarks stay strict — 0 × 1.001 is still 0).
# bench_fresh.json is scratch (gitignored).
benchdiff:
	( $(GO) test -run '^$$' -bench 'CampaignSynthetic(Serial|Parallel)' -benchmem -count $(BENCH_COUNT) . ; \
	  $(GO) test -run '^$$' -bench 'CampaignSimulated' -benchmem -count $(BENCH_COUNT) . ; \
	  $(GO) test -run '^$$' -bench 'TimerEnqueueDequeue|HostLookup|StepBatchDrain' -benchmem -count $(BENCH_COUNT) ./internal/netsim ) \
	  | $(GO) run ./scripts/bench2json > $(BENCH_FRESH)
	$(GO) run ./scripts/benchdiff -fresh $(BENCH_FRESH) -alloc-ratio 1.001 -newest BENCH_PR*.json

# Sweep smoke: a 2×2 grid (2018/2013 × pristine/20% loss) at the golden
# scale, run twice with different pool sizes. Asserts the matrix is
# byte-identical across schedules and that the loss-free 2018 baseline cell
# reproduces the pinned digest.
smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/orsweep -shift 14 -seed 1 -year 2018 -year 2013 \
		-loss none -loss loss:0.2 -workers 1 \
		-json $(SMOKE_DIR)/matrix1.json > $(SMOKE_DIR)/matrix1.txt
	$(GO) run ./cmd/orsweep -shift 14 -seed 1 -year 2018 -year 2013 \
		-loss none -loss loss:0.2 -workers 4 \
		-json $(SMOKE_DIR)/matrix4.json > $(SMOKE_DIR)/matrix4.txt
	cmp $(SMOKE_DIR)/matrix1.json $(SMOKE_DIR)/matrix4.json
	cmp $(SMOKE_DIR)/matrix1.txt $(SMOKE_DIR)/matrix4.txt
	grep -q '"digest": "$(SMOKE_BASELINE)"' $(SMOKE_DIR)/matrix1.json
	@echo "smoke: matrix invariant across pool sizes; baseline digest pinned"

# Service smoke: boot the orserved daemon, run the same smoke grid through
# the HTTP API, and assert the pinned baseline digest, a digest-cache hit
# on resubmission, and a clean SIGTERM drain.
serve-smoke:
	$(GO) run ./scripts/servesmoke -baseline $(SMOKE_BASELINE)

# Fabric smoke: the multi-process twin of `make smoke`. One coordinator
# process + three worker processes on loopback run the same 2×2 grid;
# every cell must be byte-identical to the single-process run and the
# loss-free 2018 cell must reproduce the pinned digest. A second pass
# SIGKILLs a worker mid-campaign and requires the requeued shard to
# converge to the identical output. Coordinator/worker stderr lands in
# $(FABRIC_LOG_DIR) so CI can attach it to failures.
fabric-smoke:
	rm -rf $(FABRIC_LOG_DIR) && mkdir -p $(FABRIC_LOG_DIR)
	$(GO) run ./scripts/fabricsmoke -baseline $(SMOKE_BASELINE) \
		-logdir $(FABRIC_LOG_DIR)

# Fuzz smoke: a short adversarial run of every native fuzz target (plain
# `go test` only replays their seed corpora). `go test -fuzz` takes one
# target per invocation, hence one line each. FuzzAppendName is the
# differential check of the name codec's bulk-copy paths against the
# byte-at-a-time oracles kept in internal/dnswire/name_test.go.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzUnpack$$' -fuzztime 10s ./internal/dnswire
	$(GO) test -run '^$$' -fuzz '^FuzzStreamParser$$' -fuzztime 10s ./internal/dnswire
	$(GO) test -run '^$$' -fuzz '^FuzzAppendName$$' -fuzztime 10s ./internal/dnswire
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 10s ./internal/capture

# The CI gauntlet, runnable locally: exactly the blocking jobs of
# .github/workflows/ci.yml (the workflow adds a non-blocking benchdiff).
ci: build vet test perfbench-test race chaos crash-matrix doccheck smoke serve-smoke fabric-smoke fuzz-smoke

# perfbench is its own module (it imports this one through a relative
# replace), so `go test ./...` never compiles it: an internal API change
# could break the benchmark unseen. It runs offline in about a second.
perfbench-test:
	cd perfbench && $(GO) test -short ./...

# CPU and heap profiles for pprof — by default the simulated campaign:
#   go tool pprof $(PROFILE_DIR)/cpu.out
# Other suites via the knobs, e.g. the batched drain:
#   make profile PROFILE_PKG=./internal/netsim PROFILE_BENCH=StepBatchDrain
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchmem -count 1 \
		-cpuprofile $(PROFILE_DIR)/cpu.out -memprofile $(PROFILE_DIR)/mem.out \
		-o $(PROFILE_DIR)/bench.test $(PROFILE_PKG)
