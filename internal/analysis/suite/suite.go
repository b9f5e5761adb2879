// Package suite registers the repo's analyzers in one place and provides
// their one driver: RunAll over a loader.Load of the module, which the
// repo-level TestLintClean gate (and so `make lint`) runs.
package suite

import (
	"hwdp/internal/analysis"
	"hwdp/internal/analysis/callgraph"
	"hwdp/internal/analysis/hotalloc"
	"hwdp/internal/analysis/poolpair"
	"hwdp/internal/analysis/sharedstate"
	"hwdp/internal/analysis/simdeterminism"
	"hwdp/internal/analysis/simtime"
	"hwdp/internal/analysis/statuscase"
)

// Analyzers is the full suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	sharedstate.Analyzer,
	poolpair.Analyzer,
	simtime.Analyzer,
	hotalloc.Analyzer,
	statuscase.Analyzer,
}

// Result pairs one unit with its surviving diagnostics.
type Result struct {
	// Unit is the analyzed package.
	Unit *analysis.Unit
	// Diags are the unit's findings, sorted by position.
	Diags []analysis.Diagnostic
}

// RunAll drives the suite over a whole in-process load: it summarizes
// every unit into one shared callgraph registry in dependency order
// (callgraph.SummarizeAll), then runs the analyzers over each unit.
// Results are returned in the input order.
func RunAll(units []*analysis.Unit) ([]Result, error) {
	callgraph.SummarizeAll(units)
	results := make([]Result, 0, len(units))
	for _, u := range units {
		diags, err := analysis.Run(u, Analyzers)
		if err != nil {
			return nil, err
		}
		results = append(results, Result{Unit: u, Diags: diags})
	}
	return results, nil
}
