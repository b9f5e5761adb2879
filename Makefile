# Standard developer entry points. CI runs the same targets, so a green
# `make check docs-check` locally means a green pipeline.

GO ?= go

.PHONY: all build test race bench-go bench-test sweep-check chaos-short ssd-check fleet-check output-diff docs-check fmt lint check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-go runs every go-test benchmark once, and no tests, as a
# compile-and-smoke check: the engine benchmarks in internal/sim, the SMU
# miss path (smu.BenchmarkHandleMiss), one device command from Deliver to
# notify (ssd.BenchmarkDeliver), the OS fault-and-evict path
# (kernel.BenchmarkMajorFaultEvict), the KV op path
# (workload.BenchmarkKVOp), one user slice (cpu.BenchmarkUserExec), one
# user slice with its kernel tail, a KV op's CPU work
# (cpu.BenchmarkUserThenKernel), one kernel charge on a fully decayed
# thread (cpu.BenchmarkKernelExec) and the root BenchmarkFig* figure
# summaries. The repository benchmark is bench/
# (bash bench/run.sh).
bench-go:
	$(GO) test -short -run '^$$' -bench=. -benchtime=1x ./...

# bench-test compiles and smoke-tests the repository benchmark (bench/, a
# module of its own that root `go test ./...` does not build), so an API
# change in the simulator cannot silently break it. See bench/README.md.
bench-test:
	cd bench && $(GO) test ./...

# sweep-check regenerates every quick-mode figure/table through the
# parallel sweep scheduler with the race detector on — the end-to-end
# proof that concurrent units share no state. SWEEP_hwdp.json records
# per-unit status/duration and is uploaded as a CI artifact. See
# docs/SWEEP.md.
sweep-check:
	$(GO) run -race ./cmd/hwdpbench -all -quick

# chaos-short runs the bounded chaos-pressure campaign under the race
# detector: oversubscription scenarios with fault storms, audited by the
# invariant watchdog; every scenario must finish with zero violations
# and zero leaked frames. SWEEP_hwdp.json records each scenario's
# degradation report as its run's "data" and is uploaded as a CI
# artifact. See docs/PRESSURE.md.
chaos-short:
	$(GO) run -race ./cmd/hwdpbench -pressure -quick

# ssd-check runs the modeled-SSD battery: the FTL/GC conservation
# property tests and checked-in fuzz seed corpora, the end-to-end
# modeled-backend smoke test, and the steady-state/GC-tail direction
# regressions — then repeats everything under the race detector, and
# regenerates every quick figure and table on the aged modeled backend.
# See docs/SSD.md.
SSD_TESTS = GCConservation|Precondition|Unmapped|WriteBuffer|Flush|Deterministic|Victim|Fuzz|ModeledBackend|SSDSteadyState|GCTailAblation|HonorsSSDBackend
ssd-check:
	$(GO) test -run '$(SSD_TESTS)' ./internal/ssd/... ./internal/core ./internal/figures
	$(GO) test -race -run '$(SSD_TESTS)' ./internal/ssd/... ./internal/core ./internal/figures
	$(GO) run ./cmd/hwdpbench -all -quick -ssd modeled -ssd-churn 1

# fleet-check runs the multi-tenant battery — the noisy-neighbor
# isolation acceptance (victim p99.9 improves >= 2x with QoS on) and the
# -j byte-equivalence pin — plain and under the race detector, then
# regenerates the CI-sized fleet figure so SWEEP_hwdp.json, which carries
# each experiment's per-tenant report as its run's "data", is always a
# fresh artifact. See docs/FLEET.md.
fleet-check:
	$(GO) test ./internal/fleet/
	$(GO) test -race ./internal/fleet/
	$(GO) run ./cmd/hwdpbench -fleet -quick

# output-diff is the byte-identity gate for a change that should not move
# the model: it builds hwdpbench at REV (any commit; default HEAD) from a
# `git archive` export under bin/output-diff/, runs -all, -pressure,
# -fleet and -breakdown, each with -quick, full-scale -pressure and
# -fleet (a few events, such as a second fault on one access, happen only
# at full scale), -all -quick on the aged modeled SSD backend
# (-ssd modeled -ssd-churn 1), and -all -quick at seed 2 (a change in
# event tie order can match every seed-1 run and still move another
# seed) on REV and on the working tree, cmps each
# stdout and names every mode that differs, printing the first 40 lines
# of its `diff -u`. A run's flags after the mode are comma-separated in
# the list below. The exported source is removed after the build; the
# binaries and outputs stay for a full diff. See docs/SWEEP.md.
REV ?= HEAD
OUTPUT_DIFF_DIR = bin/output-diff
output-diff:
	@set -e; d=$(OUTPUT_DIFF_DIR); rm -rf $$d; mkdir -p $$d/src; \
	git archive $(REV) | tar -x -C $$d/src; \
	(cd $$d/src && $(GO) build -o ../hwdpbench.rev ./cmd/hwdpbench); \
	rm -rf $$d/src; \
	$(GO) build -o $$d/hwdpbench.tree ./cmd/hwdpbench; \
	differ=; \
	for run in all:-quick pressure:-quick fleet:-quick breakdown:-quick pressure: fleet: \
		all:-quick,-ssd,modeled,-ssd-churn,1 all:-quick,-seed,2; do \
		mode=$${run%%:*}; flags=$$(echo "$${run#*:}" | tr , ' '); \
		out=$$mode$$(echo "$${run#*:}" | tr -d ,); \
		label="-$$mode$${flags:+ $$flags}"; \
		for side in rev tree; do \
			st=0; $$d/hwdpbench.$$side -$$mode $$flags -sweep-out $$d/sweep.$$side.json \
				> $$d/$$out.$$side.out 2>/dev/null || st=$$?; \
			echo "exit status $$st" >> $$d/$$out.$$side.out; \
		done; \
		if cmp -s $$d/$$out.rev.out $$d/$$out.tree.out; then \
			echo "output-diff: $$label identical"; \
		else \
			echo "output-diff: $$label differs ($$d/$$out.rev.out vs $$d/$$out.tree.out)"; \
			diff -u $$d/$$out.rev.out $$d/$$out.tree.out | head -40; \
			differ="$$differ '$$label'"; \
		fi; \
	done; \
	if [ -n "$$differ" ]; then echo "output-diff: stdout differs from $(REV) in:$$differ"; exit 1; fi; \
	echo "output-diff: every mode matches $(REV)"

fmt:
	gofmt -w .

# lint runs the stock go vet analyzers, then the repo's own analyzer suite
# (determinism, pool pairing, sim-time units, status-switch
# exhaustiveness, and the interprocedural sharedstate/hotalloc proofs over
# the whole module's call graph: no state shared between concurrent sweep
# units, and an allocation-free miss path) through its one driver, the
# in-process TestLintClean gate. See docs/ANALYSIS.md for the analyzers
# and the //hwdp:ignore syntax. The wall-clock budget catches an analyzer
# that went superlinear.
LINT_BUDGET_SECS ?= 120
lint:
	@start=$$(date +%s); \
	$(GO) vet ./... && \
	$(GO) test -count=1 -run TestLintClean . || exit $$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "lint wall-clock: $${elapsed}s (budget $(LINT_BUDGET_SECS)s)"; \
	if [ $$elapsed -gt $(LINT_BUDGET_SECS) ]; then \
		echo "lint exceeded its wall-clock budget"; exit 1; \
	fi

# docs-check enforces the documentation invariants: gofmt-clean sources,
# package docs and doc comments on every exported symbol, no broken
# relative links in markdown, and no dead `go run` path or unregistered
# hwdpbench flag in a fenced command. See cmd/docscheck.
docs-check:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) run ./cmd/docscheck

check: build lint test docs-check
