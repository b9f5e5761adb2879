// Package eventcapture flags closures handed to the event engine's one
// closure-taking scheduling method, Post, in hot-path packages when they
// capture local variables. Each such closure is a fresh heap allocation
// on every call — on the page-miss path that is millions of allocations
// per run and the difference between 0 and 2 allocs/op in
// BenchmarkHandleMiss. The fix is a pre-bound method value (captures
// nothing) or the argument-passing forms PostArg / AtArgPooled, which
// carry the per-event state through a recycled carrier instead of a
// closure environment.
//
// Capture-free closures (pure method values wrapped in func(){...} with
// only package-level or receiver-free references) are allowed: the
// compiler hoists those to a single static closure.
package eventcapture

import (
	"go/ast"
	"strings"

	"hwdp/internal/analysis"
)

// Analyzer is the eventcapture check.
var Analyzer = &analysis.Analyzer{
	Name: "eventcapture",
	Doc: "flag capturing closures passed to sim.Engine scheduling methods in " +
		"hot-path packages; use pre-bound callbacks or PostArg/AtArgPooled",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsHotPathPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkSchedule(pass, call)
			return true
		})
	}
	return nil
}

// checkSchedule inspects one call: if it is an Engine scheduling method
// taking a bare func() and the argument is a capturing closure, report it.
func checkSchedule(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	name, ok := analysis.IsEngineScheduler(fn)
	if !ok || !analysis.EngineSchedulers[name] {
		return // PostArg/AtArgPooled are the sanctioned forms
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		caps := analysis.CapturedVars(pass.TypesInfo, pass.Pkg, lit)
		if len(caps) == 0 {
			continue
		}
		pass.Reportf(lit.Pos(), "closure passed to sim.Engine.%s captures %s, allocating a closure environment per event on the hot path: use a pre-bound callback or the pooled PostArg/AtArgPooled forms",
			name, joinVars(caps))
	}
}

// joinVars renders a captured-variable list for the diagnostic.
func joinVars(names []string) string {
	switch len(names) {
	case 0:
		return "nothing"
	case 1:
		return "variable " + names[0]
	}
	return "variables " + strings.Join(names, ", ")
}
