package laneescape_test

import (
	"testing"

	"hwdp/internal/analysis/analyzertest"
	"hwdp/internal/analysis/laneescape"
)

// TestLaneEscape drives the transitive shared-state proof over the escape
// fixture: a device-side model package reaching package-level writes, host
// locks, and goroutine launches through a helper package lanesafety never
// examines.
func TestLaneEscape(t *testing.T) {
	analyzertest.Run(t, "../testdata", "hwdp/internal/mmu/escape", laneescape.Analyzer)
}
