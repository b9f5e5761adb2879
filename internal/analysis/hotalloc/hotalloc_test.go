package hotalloc_test

import (
	"testing"

	"hwdp/internal/analysis/analyzertest"
	"hwdp/internal/analysis/hotalloc"
)

// TestHotalloc drives the interprocedural allocation prover over the smu
// fixture, a miniature of the BenchmarkHandleMiss pipeline: the planted
// allocation two hops and one package boundary from the //hwdp:hotpath
// root must be reported with its discovery chain, local atoms report at
// their own site, and the coldpath / pool / panic / waiver exemptions
// stay silent.
func TestHotalloc(t *testing.T) {
	analyzertest.Run(t, "../testdata", "hwdp/internal/smu", hotalloc.Analyzer)
}

// TestEventCapture drives the rootless Post rule over the mmu fixture:
// capturing closures passed to sim.Engine.Post are reported with no
// //hwdp:hotpath root in sight, capture-free closures and the pooled
// forms pass, and a hot-path root posting a capturing closure reports the
// site once.
func TestEventCapture(t *testing.T) {
	analyzertest.Run(t, "../testdata", "hwdp/internal/mmu", hotalloc.Analyzer)
}
