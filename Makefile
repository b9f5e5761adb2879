# Standard developer entry points. CI runs the same targets, so a green
# `make check docs-check` locally means a green pipeline.

GO ?= go

.PHONY: all build test race bench-go bench-test sweep-check chaos-short ssd-check fleet-check docs-check fmt lint check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-go runs every go-test benchmark once, and no tests, as a
# compile-and-smoke check: the engine benchmarks in internal/sim, the SMU
# miss path (smu.BenchmarkHandleMiss) and the root BenchmarkFig* figure
# summaries. The repository benchmark is bench/ (bash bench/run.sh).
bench-go:
	$(GO) test -short -run '^$$' -bench=. -benchtime=1x ./...

# bench-test compiles and smoke-tests the repository benchmark (bench/, a
# module of its own that root `go test ./...` does not build), so an API
# change in the simulator cannot silently break it. See bench/README.md.
bench-test:
	cd bench && $(GO) test ./...

# sweep-check regenerates every quick-mode figure/table through the
# parallel sweep scheduler with the race detector on — the end-to-end
# proof that concurrent units share no state. The cache is bypassed so
# every unit actually simulates; SWEEP_hwdp.json records per-unit
# status/duration and is uploaded as a CI artifact. See docs/SWEEP.md.
sweep-check:
	$(GO) run -race ./cmd/hwdpbench -all -quick -no-cache

# chaos-short runs the bounded chaos-pressure campaign under the race
# detector: oversubscription scenarios with fault storms, audited by the
# invariant watchdog; every scenario must finish with zero violations
# and zero leaked frames. CAMPAIGN_hwdp.json records the per-scenario
# degradation report and is uploaded as a CI artifact. See
# docs/PRESSURE.md.
chaos-short:
	$(GO) run -race ./cmd/hwdpbench -pressure -quick -no-cache -sweep-out CAMPAIGN_sweep.json

# ssd-check runs the modeled-SSD battery: the FTL/GC conservation
# property tests and checked-in fuzz seed corpora, the end-to-end
# modeled-backend smoke test, and the steady-state/GC-tail direction
# regressions — then repeats everything under the race detector. See
# docs/SSD.md.
SSD_TESTS = GCConservation|Precondition|Unmapped|WriteBuffer|Flush|Deterministic|Victim|Fuzz|ModeledBackend|SSDSteadyState|GCTailAblation|FingerprintCoversSSD
ssd-check:
	$(GO) test -run '$(SSD_TESTS)' ./internal/ssd/... ./internal/core ./internal/figures
	$(GO) test -race -run '$(SSD_TESTS)' ./internal/ssd/... ./internal/core ./internal/figures

# fleet-check runs the multi-tenant battery — the per-tenant counter
# conservation property (under QoS and fault storms), the noisy-neighbor
# isolation acceptance (victim p99.9 improves >= 2x with QoS on), and the
# -j byte-equivalence pin — plain and under the race detector, then
# regenerates the CI-sized fleet figure so FLEET_hwdp.json is always a
# fresh artifact. See docs/FLEET.md.
fleet-check:
	$(GO) test ./internal/fleet/
	$(GO) test -race ./internal/fleet/
	$(GO) run ./cmd/hwdpbench -fleet -quick -no-cache -sweep-out FLEET_sweep.json

fmt:
	gofmt -w .

# lint runs the stock go vet analyzers plus the repo's own hwdplint suite
# (determinism, pool pairing, sim-time units, hot-path closure captures,
# status-switch exhaustiveness, the no-shared-state checks that keep
# concurrent sweep units independent, and the interprocedural
# hotalloc/laneescape proofs over per-package callgraph facts). See
# docs/ANALYSIS.md for the analyzers and the //hwdp:ignore syntax. The
# wall-clock budget keeps the fact-driven vettool pass honest: blowing it
# means facts stopped caching (check the -V=full fingerprint) or an
# analyzer went superlinear.
LINT_BUDGET_SECS ?= 120
lint:
	@start=$$(date +%s); \
	$(GO) vet ./... && \
	$(GO) build -o bin/hwdplint ./cmd/hwdplint && \
	$(GO) vet -vettool=$(CURDIR)/bin/hwdplint ./... || exit $$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "lint wall-clock: $${elapsed}s (budget $(LINT_BUDGET_SECS)s)"; \
	if [ $$elapsed -gt $(LINT_BUDGET_SECS) ]; then \
		echo "lint exceeded its wall-clock budget"; exit 1; \
	fi

# docs-check enforces the documentation invariants: gofmt-clean sources,
# package docs and doc comments on every exported symbol, and no broken
# relative links in markdown. See cmd/docscheck.
docs-check:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) run ./cmd/docscheck

check: build lint test docs-check
