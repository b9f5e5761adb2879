package simdeterminism_test

import (
	"testing"

	"hwdp/internal/analysis/analyzertest"
	"hwdp/internal/analysis/sharedstate"
	"hwdp/internal/analysis/simdeterminism"
)

// TestSimdeterminism drives the rule over the kernel fixture. That
// fixture also holds sharedstate's kernel cases (a goroutine spawn, and a
// kernel function reaching a helper's package-level write), so both
// analyzers run; the one-to-one want matching fails if any site is
// reported by both.
func TestSimdeterminism(t *testing.T) {
	analyzertest.Run(t, "../testdata", "hwdp/internal/kernel", simdeterminism.Analyzer, sharedstate.Analyzer)
}
