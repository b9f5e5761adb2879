package hwdp_test

import (
	"fmt"
	"testing"

	"hwdp/internal/analysis/loader"
	"hwdp/internal/analysis/suite"
)

// TestLintClean is the analyzer suite's one driver over the real tree and
// its tier-1 regression gate (`make lint` runs it after go vet): the whole
// module must type-check and produce zero unsuppressed diagnostics. A new
// wall-clock read, unpaired pool acquire, unit-less sim.Time constant,
// hot-path capturing closure, non-exhaustive status switch, allocation
// reachable from a //hwdp:hotpath root, or shared-state site reachable
// from hot-path model code fails this test (suite.RunAll summarizes the
// module's call graph with callgraph.SummarizeAll, then runs every
// analyzer).
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lint pass recompiles the module for export data; skipped in -short mode")
	}
	units, err := loader.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(units) == 0 {
		t.Fatal("loader returned no packages for ./...")
	}
	results, err := suite.RunAll(units)
	if err != nil {
		t.Fatalf("analyzing: %v", err)
	}
	var failures []string
	for _, r := range results {
		for _, d := range r.Diags {
			failures = append(failures,
				fmt.Sprintf("%s: %s [%s]", r.Unit.Fset.Position(d.Pos), d.Message, d.Analyzer))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			t.Error(f)
		}
		t.Fatalf("%d unsuppressed lint diagnostics (fix the code or add a "+
			"justified //hwdp:ignore; see docs/ANALYSIS.md)", len(failures))
	}
}
