// Package sharedstate keeps simulator model code free of state shared
// between simulated machines. `hwdpbench -j N` (internal/sweep) runs
// independent run units — each one a whole simulated machine —
// concurrently in one process, so nothing a hot-path package reaches,
// across any number of calls and packages, may:
//
//   - write a package-level variable: it is shared by every machine in the
//     process, so a write is a data race under sweep -j and a determinism
//     hazard even when it happens to be race-free (one unit's output must
//     not depend on which units run beside it);
//   - use sync or sync/atomic, create or operate on a channel, or start a
//     goroutine: host-scheduler coordination makes event outcomes depend
//     on host timing; hand-offs between components must be engine events,
//     which fire in virtual-time order.
//
// Every function declared in an analysis.HotPathPackages package is a
// root of a walk over the callgraph facts (docs/ANALYSIS.md). A site in
// the package under analysis is reported at its own line; a site reached
// in another package is reported at the root's first call toward it,
// with the call chain. Initialization at declaration and in init
// functions is not flagged: both run once, before any unit starts.
package sharedstate

import (
	"go/ast"

	"hwdp/internal/analysis"
	"hwdp/internal/analysis/callgraph"
)

// Analyzer is the sharedstate check.
var Analyzer = &analysis.Analyzer{
	Name: "sharedstate",
	Doc: "prove simulator model code reaches no package-variable writes, " +
		"sync/atomic use, channels or goroutines, in its own package or " +
		"through any call chain: concurrent sweep units must share no state",
	Run: run,
}

func run(pass *analysis.Pass) error {
	reg, err := callgraph.RegistryOf(pass.Unit)
	if err != nil {
		return err
	}
	pkg := pass.Pkg.Path()
	if !analysis.IsHotPathPkg(pkg) {
		return nil
	}
	seen := map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root := callgraph.DeclFuncKey(pass.TypesInfo, fd)
			if root == "" {
				continue
			}
			for _, finding := range reg.Reachable(root, pass.Analyzer.Name, false) {
				site := callgraph.ShortPos(pass.Fset, finding.Atom.Pos)
				key := finding.Func + "|" + site + "|" + finding.Atom.Kind
				if seen[key] {
					continue
				}
				seen[key] = true
				if fpkg, _, _ := callgraph.SplitKey(finding.Func); fpkg == pkg {
					pass.Reportf(finding.Atom.Pos, "model code %s: %s — state must live on a model component, and hand-offs must be engine events",
						callgraph.DisplayKey(finding.Func), finding.Atom.Msg)
					continue
				}
				pass.Reportf(finding.ReportPos(), "model code %s reaches shared state: %s: %s at %s — state must live on a model component, not be shared across concurrent sweep units",
					callgraph.DisplayKey(root), callgraph.RenderChain(pass.Fset, finding.Chain), finding.Atom.Msg, site)
			}
		}
	}
	return nil
}
