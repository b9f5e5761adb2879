package sharedstate_test

import (
	"testing"

	"hwdp/internal/analysis/analyzertest"
	"hwdp/internal/analysis/sharedstate"
)

// TestSharedstate drives the rule over the ssd fixture, where every site
// sits in the hot-path package itself and reports at its own line.
func TestSharedstate(t *testing.T) {
	analyzertest.Run(t, "../testdata", "hwdp/internal/ssd", sharedstate.Analyzer)
}

// TestSharedstateChains drives the transitive walk over the escape
// fixture: a model package reaching package-level writes, host locks and
// goroutine launches through a helper package outside the hot path, each
// reported at the first call out of the root with its chain. The kernel
// fixture's cases (a goroutine spawn, and a kernel function reaching the
// same helper) run in simdeterminism's test, which shares that fixture.
func TestSharedstateChains(t *testing.T) {
	analyzertest.Run(t, "../testdata", "hwdp/internal/mmu/escape", sharedstate.Analyzer)
}
