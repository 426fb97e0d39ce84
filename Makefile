# Convenience targets for the emuchick reproduction.

GO ?= go

.PHONY: all check build vet lint test test-quick bench bench-quick bench-archive bench-gate race figures figures-quick scorecard scorecard-quick trace-smoke fault-smoke serve-smoke chaos-smoke soak examples clean

all: build vet lint test race

# The pre-commit gate: compile, vet, lint, test, the perf gate, the job
# server smoke, and the chaos smoke.
check: build vet lint test bench-gate serve-smoke chaos-smoke

build:
	$(GO) build ./...

# go vet, then a gofmt gate: fail if any tracked .go file has drifted from
# gofmt (make check runs this).
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files -z '*.go' | xargs -0 -r gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

# The repo's own analyzer suite (cmd/emulint): determinism, park-site,
# hot-path allocation, no-handoff, seed-flow, fingerprint, and
# observer-guard contracts — interprocedural since the funcfacts pass,
# with per-analyzer timing reported on stderr (-v).
lint:
	$(GO) run ./cmd/emulint -v ./...

test:
	$(GO) test ./...

# The suite at -short semantics: everything still runs, it is just the
# regular suite (kept separate in case slow tests are ever gated).
test-quick: test

bench:
	$(GO) test -bench . -benchmem .

# Benchmark iterations for archives and the gate; the archived baselines in
# the repo were recorded with 5 (see DESIGN.md §13).
BENCH_ITERS ?= 5
# The baseline the gate diffs against: BENCH_engine3.json is the newest
# archive (continuation proc engine as the kernel default, plus the
# threadlet-scale stress benchmark); BENCH_engine2.json (post-optimization
# goroutine engine) and BENCH_engine.json (pre-optimization) are kept so
# the trajectory stays visible.
BENCH_BASELINE ?= BENCH_engine3.json

# The gated benchmark set: the per-figure benchmarks plus the
# threadlet-scale stress run (10^6 continuation procs with a hard
# bytes-per-proc bound).
BENCH_GATED := BenchmarkFig|BenchmarkThreadletScale

# One fast pass over the gated benchmarks, snapshotted as JSON scratch for
# quick local diffs (does not touch the archived baselines).
bench-quick:
	$(GO) test -run '^$$' -bench '$(BENCH_GATED)' -benchtime 1x . | $(GO) run ./cmd/benchjson > BENCH_quick.json

# Re-archive the gate baseline: BENCH_ITERS runs per benchmark aggregated
# into min/mean/max stats. Run this (and commit the result) whenever a
# deliberate perf change moves the expected numbers.
bench-archive:
	$(GO) test -run '^$$' -bench '$(BENCH_GATED)' -benchtime 1x -count $(BENCH_ITERS) . | $(GO) run ./cmd/benchjson > $(BENCH_BASELINE)

# Gate tolerance: measured back-to-back same-binary drift on the 1-core CI
# container reaches ~1.3-1.4x (min-of-5 vs min-of-5, minutes apart), so the
# benchjson default of +25% flakes on an unchanged tree. The gate's job is
# the accidental 2x (DESIGN.md §13); 5% deltas need interleaved A/B runs.
BENCH_TOLERANCE ?= 0.5

# The perf regression gate: run the figure benchmarks live and diff against
# the archived baseline; exits non-zero when any benchmark regresses past
# its tolerance or disappears. Wired into `make check`.
bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH_GATED)' -benchtime 1x -count $(BENCH_ITERS) . | $(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -tolerance $(BENCH_TOLERANCE)

# Race-detector pass over every package that shares state across
# goroutines: the event engine, the parallel experiment runner, the job
# server (worker pool + admission control), the chaos harness, the
# crash-faulting store, the trace pipeline, and the kernel, cilk and
# machine state machines the runner's concurrent workers drive.
race:
	$(GO) test -race ./internal/sim/... ./internal/experiments/... \
		./internal/jobserver/... ./internal/chaos/... \
		./internal/storefs/... ./internal/trace/... \
		./internal/kernels/... ./internal/cilk/... ./internal/machine/...

# Regenerate every paper artifact at full size (~10-15 minutes).
figures:
	$(GO) run ./cmd/emubench -fig all -format table

figures-quick:
	$(GO) run ./cmd/emubench -fig all -quick -format table

# The 15-claim reproduction scorecard.
scorecard:
	$(GO) run ./cmd/emuvalidate

scorecard-quick:
	$(GO) run ./cmd/emuvalidate -quick

# Trace one fig6 point at CI scale, then structurally validate the JSONL
# (emutrace also re-validates the file itself before reporting success).
trace-smoke:
	$(GO) run ./cmd/emutrace -fig fig6 -quick -trials 1 -format jsonl -out /tmp/emutrace-smoke.jsonl
	$(GO) run ./cmd/emutrace -validate /tmp/emutrace-smoke.jsonl

# Exercise the fault layer end to end at CI scale: both graceful-degradation
# figures, then a faulted run traced to JSONL (fault_stall events included)
# and structurally validated.
fault-smoke:
	$(GO) run ./cmd/emubench -fig degradation-stream -quick -format table
	$(GO) run ./cmd/emubench -fig degradation-chase -quick -format table
	$(GO) run ./cmd/emutrace -fig fig6 -quick -trials 1 -format jsonl \
		-faults 'migstall=10us/100us' -out /tmp/emufault-smoke.jsonl
	$(GO) run ./cmd/emutrace -validate /tmp/emufault-smoke.jsonl

# Chaos smoke at -short scale: the seeded fault-injection unit suite plus
# the crash-restart fuzz (kill the store at a seeded op, restart, demand
# byte-identical results) and the noisy-disk degradation tests. Wired into
# `make check`; drop -short for the full 20-seed sweep.
chaos-smoke:
	$(GO) test ./internal/chaos -count=1
	$(GO) test ./internal/jobserver -run 'TestChaos' -short -count=1

# Boot cmd/emuserved, submit a quick job over real HTTP, poll it done, fetch
# the result, and require an identical resubmit to be a byte-identical cache
# hit (exactly 1 simulated + 1 cache hit in /v1/stats). Wired into `make
# check`.
serve-smoke:
	bash scripts/serve_smoke.sh

# Kill-and-resume soak: archive an uninterrupted full-size fig6, then start
# the same sweep checkpointed, SIGINT it mid-run (it takes ~8 s; the kill
# lands at ~2 s), resume from the log, and byte-compare the archived figure
# JSON — the crash-safety contract, end to end through the real binary.
# The JSON is compared rather than stdout because stdout carries wall-clock
# timings.
SOAK_DIR := /tmp/emusoak
soak:
	rm -rf $(SOAK_DIR) && mkdir -p $(SOAK_DIR)/ckpt
	$(GO) build -o $(SOAK_DIR)/emubench ./cmd/emubench
	$(SOAK_DIR)/emubench -fig fig6 -trials 1 -parallel 2 -outdir $(SOAK_DIR)/base > /dev/null
	-( $(SOAK_DIR)/emubench -fig fig6 -trials 1 -parallel 2 \
		-checkpoint $(SOAK_DIR)/ckpt/ > /dev/null & \
	   pid=$$!; sleep 2; kill -INT $$pid; wait $$pid )
	@test -s $(SOAK_DIR)/ckpt/fig6.ckpt || { echo "soak: no checkpoint written"; exit 1; }
	@echo "soak: interrupted with $$(grep -c '"type":"cell"' $(SOAK_DIR)/ckpt/fig6.ckpt) of 52 cells checkpointed; resuming"
	$(SOAK_DIR)/emubench -fig fig6 -trials 1 -parallel 4 \
		-checkpoint $(SOAK_DIR)/ckpt/ -resume -outdir $(SOAK_DIR)/resumed > /dev/null
	diff $(SOAK_DIR)/base/fig6.json $(SOAK_DIR)/resumed/fig6.json
	@echo "soak: resumed figures are byte-identical to the uninterrupted run"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/graphwalk
	$(GO) run ./examples/spmv
	$(GO) run ./examples/migration
	$(GO) run ./examples/tensor

clean:
	$(GO) clean ./...
