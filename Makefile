GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race chaos chaos-ssd chaos-rebuild check mutate fuzz cover bench-smoke bench-pairs same-outputs kernels obs-test shard-test qos-test lsraid-test loc ci clean

all: ci

build:
	$(GO) build ./...

# go vet, plus gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "FAIL: gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Race coverage on the packages with concurrency-sensitive state
# (fault injection — including arming and disarming an injector under
# concurrent I/O, TestArmingConcurrentWithIO — cache core, array repair
# paths, Synthesize's concurrent target streams) plus the harness's
# parallel fan-out runner, its determinism tests and one experiment run
# on both backends at once (TestRecoveryTimeIndependentOfBackend). The
# backend and the pool width are fields of the experiment's Env, not
# process-wide settings, so the determinism tests and the per-backend
# subtests run in parallel with each other.
race:
	$(GO) test -race ./internal/blockdev/ ./internal/core/ ./internal/raid/ ./internal/workload/
	$(GO) test -race -run 'FanOut|Deterministic|TestRecoveryTimeIndependentOfBackend' ./internal/harness/
	$(GO) test -race -short -timeout 20m ./internal/check/ ./internal/model/

# Full chaos run: randomized seeded fault schedules with end-to-end
# verification; non-zero exit on any violation.
chaos:
	$(GO) run ./cmd/kddcheck -chaos

# Whole-SSD failover chaos plans (fail-stop kill, kill mid-clean, breaker
# storm, reattach-then-rekill) under the race detector.
chaos-ssd:
	$(GO) test -race -run 'TestChaosSSD' ./internal/harness/

# Rebuild-window chaos plans (member kill with a hot spare, power losses
# inside the rebuild window, second member kill mid-window on RAID-6)
# under the race detector.
chaos-rebuild:
	$(GO) test -race -run 'TestChaosRebuild' ./internal/harness/

# Model-based crash-consistency checker, deterministic CI mode: the one
# {kdd, lsraid} x {bare engine, sharded plane} x {plain, rebuild window}
# matrix in one process. Every crash point and media-fault site
# enumerated from the engine's profile trace, every crash point of the
# plane's batched workload (interleaved lane batches in flight), and, in
# the rebuild cells, a member killed mid-workload with every crash point
# (the rebuild target's writes included) fired against the online
# rebuild; two fixed seeds per cell; non-zero exit on any violation. The
# only place the CI sweeps run.
check:
	$(GO) run ./cmd/kddcheck -ci

# Mutation self-tests, each proving the checker has teeth against one
# ordering bug. The kddbug build tag compiles in a DEZ log-before-durable
# ordering bug (bare engine) and a batch acked before its page is durable
# (sharded plane); the kddbug_checkpoint tag, alone, a rebuild pump that
# checkpoints the watermark a step will reach before running the step,
# which the rebuild sweeps must catch on both subjects and both backends;
# the kddbug_idle tag, alone, a cleaner that reclaims a queued row's pages
# before repairing its parity, which the crash sweep must catch on both
# subjects; the kddbug_lsraid tag, alone, a log that flips a row's mapping
# and appends its segment summary before the row's member writes, which
# the lsraid rebuild sweep must catch on both subjects; the
# kddbug_lsraid_gc tag, alone, a segment GC that frees its victim before
# staging the victim's live pages, which the plain lsraid sweep must catch
# on both subjects (the rig's log is sized to wrap, so GC runs).
mutate:
	$(GO) test -tags kddbug -run TestMutationCaught -v ./internal/check/
	$(GO) test -tags kddbug_checkpoint -run TestMutationCaughtCheckpointAhead -v ./internal/check/
	$(GO) test -tags kddbug_idle -run TestMutationCaughtIdleReclaim -v ./internal/check/
	$(GO) test -tags kddbug_lsraid -run TestMutationCaughtLSRaidSummaryFirst -v ./internal/check/
	$(GO) test -tags kddbug_lsraid_gc -run TestMutationCaughtLSRaidGC -v ./internal/check/

# Native Go fuzzing over the trace parsers, the metadata-log, span,
# tenant-spec and segment-summary decoders and the delta codecs' Apply,
# $(FUZZTIME) per target (one target per invocation, as go test requires).
fuzz:
	$(GO) test -fuzz '^FuzzParseSPC$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz '^FuzzParseMSR$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz '^FuzzParseUniform$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz '^FuzzEntryDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/metalog/
	$(GO) test -fuzz '^FuzzPageDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/metalog/
	$(GO) test -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/obs/
	$(GO) test -fuzz '^FuzzParseTenants$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/qos/
	$(GO) test -fuzz '^FuzzLSRaidSegmentDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/lsraid/
	$(GO) test -fuzz '^FuzzZRLEApply$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/delta/

# Observability battery: obs unit/property tests, golden trace and
# metrics artifacts, and the cross-width determinism contract — all
# under the race detector.
obs-test:
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'Obs|TraceProperties|PhaseArtifacts|PhaseBreakdown' ./internal/harness/

# Sharded data plane battery: the cross-shard determinism contract
# (byte-identical output at shard counts 1/2/4/8, coalescing on and off)
# under the race detector at several test-parallelism levels, which races
# the tests against each other, plus the routing/digest property tests
# and the open-loop generator. (The plane's crash sweep is part of
# `make check`.) Last, the recycled byte path's ownership test: a
# data-mode stream through the engine and the plane with every released
# buffer poisoned.
shard-test:
	$(GO) test -race -parallel 1 -count=1 -run 'TestDeterministic' ./internal/shard/
	$(GO) test -race -parallel 4 -count=1 -run 'TestDeterministic' ./internal/shard/
	$(GO) test -race -parallel 16 -count=1 -run 'TestDeterministic' ./internal/shard/
	$(GO) test -race ./internal/shard/ ./internal/workload/
	$(GO) test -race -count=1 -run 'TestOwnershipUnderPoison' ./internal/blockdev/

# Multi-tenant QoS battery: token-bucket conservation and
# degradation-ladder property tests, the replay loop's time order under
# throttle retries and its qos_throttle/qos_shed trace marks, the
# noisy-neighbor isolation proof on the device clock (victim p99 within
# 2x of its aggressor-free baseline), its byte-identical-output
# determinism contract at several test-parallelism levels (the test
# passes each pool width in the experiment's Env and calls t.Parallel(),
# as every harness determinism test does), and the lane-kill chaos plan
# — all under the race detector.
qos-test:
	$(GO) test -race ./internal/qos/
	$(GO) test -race -parallel 1 -count=1 -run 'TestDeterministicNoisy' ./internal/harness/
	$(GO) test -race -parallel 4 -count=1 -run 'TestDeterministicNoisy' ./internal/harness/
	$(GO) test -race -parallel 16 -count=1 -run 'TestDeterministicNoisy' ./internal/harness/
	$(GO) test -race -run 'TestNoisyNeighborIsolation|TestReplayServesInTimeOrder|TestRunTraceQoSTracesVerdicts|TestChaosLaneKill' ./internal/harness/

# Log-structured backend battery: lsraid unit and property tests (GC
# liveness, crash+replay over every enumerated torn-write site, segment
# accounting) and the kdd-vs-lsraid differential trace battery at FanOut
# widths 1/4/16 (byte-identical reads, equal engine digests at flush
# barriers), under the race detector, and the head-to-head's pins (GC
# copies, segments and write amp unchanged; lsraid p99 below kdd's).
# (The checker's crash-site sweep of the backend is part of `make check`.)
lsraid-test:
	$(GO) test -race ./internal/lsraid/
	$(GO) test -race -run 'TestDifferentialBackends|TestLSRaidCompareSweep' -timeout 20m ./internal/harness/

# Coverage ratchet: total statement coverage may not drop more than 0.5
# points below the committed baseline in COVERAGE.txt. Raise the baseline
# when coverage genuinely improves.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	base=$$(cat COVERAGE.txt); \
	echo "total coverage: $$total% (baseline $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { if (t + 0.5 < b) { \
		print "FAIL: coverage " t "% is more than 0.5 points below baseline " b "%"; exit 1 } }'

# The repository's benchmark (BENCHMARK.json, bench/) is a module of its
# own that the root `go vet/test ./...` never reach: vet and test it, then
# run all five workloads at 1 % size, untraced and traced. Every run
# checks its own outputs and exits non-zero on a failure.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -quick
	bash bench/run.sh -quick -trace 1

# Paired parent-vs-change runs of that benchmark, the protocol a perf
# claim rests on: make bench-pairs WORKLOAD=zipf_plane_fit [N=10] [BASE=HEAD]
# (WORKLOAD=all runs every workload). Each workload's verdict table
# (scripts/pairs-verdict.awk states the rule) is appended to the
# BENCH_harness.json trajectory as one entry; earlier entries keep their
# bytes.
bench-pairs:
	WORKLOAD=$(WORKLOAD) N=$(or $(N),10) BASE=$(or $(BASE),HEAD) bash scripts/bench-pairs.sh

# Byte-identity of the outputs against BASE (default HEAD): every
# kddfigs -scale 0.02 file on both backends (ALL.txt's timestamp masked)
# and kddcheck -ci's stdout, built and run on both sides; fails on any
# difference. The evidence a "same numbers" change collects; too slow
# for `ci`. make same-outputs [BASE=HEAD] [J=2]
same-outputs:
	BASE=$(or $(BASE),HEAD) J=$(or $(J),2) bash scripts/same-outputs.sh

# The model kernels every replayed request pays for — the disk seek
# curve, the fault injector's unarmed pass-through, the latency
# histogram, RAID-6 Q parity (ns per data page) — the span recorder's
# per-span cost and its export, the open-loop, multi-tenant and Table I
# trace generators the workloads' set-up pays for, KDD's cleaner pass (ns
# and allocs per repaired row), its idle-queue dispatch (ns and allocs
# per queued row), LeavO's and WB's cleaner passes (ns and allocs per
# cleaned page), the plane's warm 256-op batch (ns and allocs per batch,
# the elevator sweep's sort included), the metadata log's steady-state
# Put (page commits and log GC included) and its crash recovery (a
# 200-page head-to-tail replay), the flash FTL's steady-state host write
# (greedy GC included), and the log-structured array's write path over one
# segment (ns and allocs per committed page, the flush included), and the
# first lap of a fresh stack's bookkeeping: a fresh metadata log taking one
# lap of pages and a fresh timing-mode lsraid array filled through its
# whole log once (ns and allocs per page), at a
# fixed small iteration count so they stay runnable. Last, the span
# tracer's cost gate: host ns per span emitted, traced against untraced
# replays of the Fin1 KDD Fig. 9 cell (interleaved, best of five, at the
# scale doubled until the untraced replay lasts 0.5 s); it fails over
# tracerBudgetNs, 150 ns (see
# DESIGN.md "Model kernels", "Binary span ring", "Workload generation",
# "Background work runs in the members' idle time" and "Sharded data
# plane").
kernels:
	$(GO) test ./internal/hdd/ -run '^$$' -bench '^BenchmarkSeekTime$$' -benchtime 2000000x
	$(GO) test ./internal/blockdev/ -run '^$$' -bench '^BenchmarkInjectorPassThrough$$' -benchtime 2000000x
	$(GO) test ./internal/stats/ -run '^$$' -bench '^BenchmarkHistogramObserve$$' -benchtime 2000000x
	$(GO) test ./internal/raid/ -run '^$$' -bench '^BenchmarkParityQ$$' -benchtime 20000x
	$(GO) test ./internal/obs/ -run '^$$' -bench '^BenchmarkSpanRecord$$' -benchtime 1000000x -benchmem
	$(GO) test ./internal/obs/ -run '^$$' -bench '^BenchmarkRingExport$$' -benchtime 20x -benchmem
	$(GO) test ./internal/workload/ -run '^$$' -bench '^Benchmark(Generate|MergeTenants|Synthesize)$$' -benchtime 20x -benchmem
	$(GO) test ./internal/core/ -run '^$$' -bench '^Benchmark(CleanPass|IdleDispatch)$$' -benchtime 200x -benchmem
	$(GO) test ./internal/cache/ -run '^$$' -bench '^BenchmarkLRUCleanPass$$' -benchtime 200x -benchmem
	$(GO) test ./internal/shard/ -run '^$$' -bench '^BenchmarkRunBatch$$' -benchtime 200x -benchmem
	$(GO) test ./internal/metalog/ -run '^$$' -bench '^BenchmarkLogPut$$' -benchtime 200000x -benchmem
	$(GO) test ./internal/metalog/ -run '^$$' -bench '^BenchmarkRecover$$' -benchtime 50x -benchmem
	$(GO) test ./internal/ssd/ -run '^$$' -bench '^BenchmarkFTLWrite$$' -benchtime 200000x -benchmem
	$(GO) test ./internal/lsraid/ -run '^$$' -bench '^BenchmarkSegmentFlush$$' -benchtime 500x -benchmem
	$(GO) test ./internal/metalog/ -run '^$$' -bench '^BenchmarkLogFirstLap$$' -benchtime 20x -benchmem
	$(GO) test ./internal/lsraid/ -run '^$$' -bench '^BenchmarkSegmentFirstFill$$' -benchtime 20x -benchmem
	$(GO) test ./internal/harness/ -run '^$$' -bench '^BenchmarkTracerCost$$' -benchtime 1x

# Size of the code that ships: non-test Go lines outside bench/, in total
# and per internal/ package (what a simplicity PR quotes before and after).
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l | awk '{ print "total " $$1 }'
	@for d in internal/*/; do \
		echo "$$(git ls-files "$$d*.go" | grep -v _test.go | xargs cat | wc -l) $$d"; \
	done | sort -rn

# `cover` is the one full-suite run (the same `go test ./...` as `test`,
# with a profile; it fails on any test failure), so `test` is not listed;
# it also runs TestChaos, which pins the default `chaos` run against
# chaos.golden, so `chaos` is not listed either. With `kernels`, this is
# everything the CI workflow runs except `fuzz`.
ci: vet build race obs-test shard-test qos-test lsraid-test chaos-ssd chaos-rebuild check mutate cover bench-smoke kernels

clean:
	$(GO) clean ./...
	rm -f coverage.out
	rm -rf .bench_build
