# Single source of truth for the checks: CI (.github/workflows/ci.yml)
# calls these same targets, so local `make check` reproduces the gate.

GO ?= go

.PHONY: all build vet test race lint verify kernel-bench perf-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The experiments binary runs every table twice (sequential vs
# parallel runner) under ~20x race overhead; the default per-binary
# 600s timeout no longer fits it.
race:
	$(GO) test -race -timeout 1200s ./...

# lint runs sdflint, the determinism static-analysis suite
# (see DESIGN.md "Determinism rules" and "Whole-program analysis",
# internal/lint). The SARIF report feeds code-scanning UIs; CI
# uploads it as an artifact.
lint:
	$(GO) run ./cmd/sdflint -sarif sdflint.sarif ./...

# verify is the regression gate for the paper's evaluation. For every
# committed baseline bench/baseline/BENCH_<experiment>.json it runs the
# experiment once in quick mode with the observability pipeline and
# tracing on, and fails on either of two things: sdfbench exits 1 when
# the experiment's contract (experiments.Entry.Check) is violated, and
# `diff -u` fails when the fresh JSON differs from the baseline. The
# JSON holds the table, the raw metrics, the metrics-export hashes and
# the trace hash and nothing host-dependent, so the one diff covers
# every simulated number and the replay identity of traces and
# exports. A new baseline dropped into the directory is picked up by
# name. Everything lands in verify-out/, which CI uploads.
verify:
	@set -e; rm -rf verify-out; mkdir verify-out; \
	$(GO) build -o verify-out/sdfbench ./cmd/sdfbench; \
	for base in bench/baseline/BENCH_*.json; do \
		json=$${base##*/}; exp=$${json#BENCH_}; exp=$${exp%.json}; \
		echo "sdfbench -quick -json -metrics -trace trace-$$exp.json $$exp"; \
		(cd verify-out && ./sdfbench -quick -json -metrics -trace trace-$$exp.json $$exp > $$exp.txt); \
		diff -u $$base verify-out/$$json; \
	done; \
	rm verify-out/sdfbench

# kernel-bench is the scheduler perf gate (DESIGN.md "Kernel round 2"):
# it fails on an allocation regression in the pooled fast paths
# (TestKernelFastPathAllocs, the numeric form of the -benchmem
# columns, wait-list fan-in, priority contention and a fresh Env's
# spawns on pooled carriers included), on a
# device command or rpcnet fan-out that costs more
# than a handful of events or allocates per request, or an erase that
# spawns a process (TestCommandBudget), or on programmed blocks that
# retain per-page state (TestCommandBudgetRetainedHeap: -run matches
# both), or on an
# 8 MB write whose planes are stepped page by page instead of filled
# once their pipeline settles, or that lists the filled pulses one by
# one (TestWriteStepBudget), or on an 8 MB read whose plane runs are
# walked page by page instead of laid out once they turn steady
# (TestReadStepBudget), or when a callback handle leaves the dispatch
# order a parked process would have had (TestHandlesKeepDispatchOrder),
# or a replicated read spawns a watcher process or allocates
# (TestGetBudget), then
# records the BenchmarkKernel* suite (BenchmarkKernelDeepQueue: FIFO
# pops under a 100k-item Queue and 1k Resource waiters;
# BenchmarkKernelEnvChurn: build an Env, run 700 concurrent processes
# on the carriers earlier Envs released, close it) with
# allocation accounting and a CPU profile. CI uploads kernel-bench.txt
# and kernel-bench.pprof, so every commit carries its kernel perf
# history.
kernel-bench:
	$(GO) test ./internal/sim -run 'TestKernelFastPathAllocs|TestHandlesKeepDispatchOrder' -count=1 -v
	$(GO) test ./internal/core -run TestCommandBudget -count=1 -v
	$(GO) test ./internal/cluster -run TestGetBudget -count=1 -v
	$(GO) test ./internal/flashchan -run 'TestWriteStepBudget|TestReadStepBudget' -count=1 -v
	$(GO) test ./internal/sim -run '^$$' -bench BenchmarkKernel -benchmem \
		-cpuprofile kernel-bench.pprof -o kernel-bench.test | tee kernel-bench.txt
	rm -f kernel-bench.test

# perf-smoke keeps the whole-stack benchmark (bench/perf, a Go module
# of its own that `go test ./...` does not reach) building and honest:
# its unit tests, then a 3-second untraced run of all four workloads
# through the BENCHMARK.json command. run.sh exits non-zero on any
# failed output check (sizes, device byte counters, read-back, the BCH
# data canaries, the cross-repetition digest). CI uploads
# bench/perf/out/ so every commit carries its end-to-end numbers.
#
# TestProtocolEmitsEveryName runs apart from the rest: at its tiny size
# a measured phase is a few ms of CPU, under the 10 ms period of the
# CPU profiler whose first tick lands at a random phase, so a pass
# whose three profiles all come back empty fails the check "cpu
# profile: no samples" — 18 runs in 40 on the reference box since the
# write path stopped settling per page (14 in 40 before). That one
# outcome — and nothing else the test can report — is retried, eight
# times so that a run of misses stays under 1 %; any other failure
# fails the target at once. Drop the loop when bench/perf's tiny run
# stops requiring a sample (ROADMAP, open items).
perf-smoke:
	$(GO) test -C bench/perf -skip '^TestProtocolEmitsEveryName$$' ./...
	@for try in 1 2 3 4 5 6 7 8; do \
		echo "$(GO) test -C bench/perf -count=1 -run '^TestProtocolEmitsEveryName$$' ./... (try $$try of 8)"; \
		if out=$$($(GO) test -C bench/perf -count=1 -run '^TestProtocolEmitsEveryName$$' ./... 2>&1); then \
			echo "$$out"; exit 0; \
		fi; \
		echo "$$out"; \
		echo "$$out" | grep -q 'perf_test.go:[0-9]*:' || exit 1; \
		echo "$$out" | grep 'perf_test.go:[0-9]*:' | \
			grep -qv 'output checks failed: \[cpu profile: no samples\]$$' && exit 1; \
	done; exit 1
	bash bench/perf/run.sh --seconds 3 --trace 0

check: build vet race lint
