// Package laneescape upgrades lanesafety's local syntax checks to a
// transitive proof over the callgraph facts (docs/ANALYSIS.md). `hwdpbench
// -j N` (internal/sweep) runs independent run units — each one a whole
// simulated machine — concurrently in one process, so nothing a model
// package reaches — across any number of calls and packages — may touch
// package-level mutable state, host synchronization, or channels: that
// state would be shared by every machine in the process. lanesafety
// polices the hot-path packages themselves line by line; laneescape walks
// from the device-side model packages (mmu, smu, nvme, ssd) into the
// helper packages (trace, pagetable, metrics, fault, ...) that
// lanesafety's package gate leaves unexamined, and reports the reaching
// call chain.
package laneescape

import (
	"go/ast"
	"regexp"

	"hwdp/internal/analysis"
	"hwdp/internal/analysis/callgraph"
)

// ModelPackages matches the device-side model packages; every
// function they declare is a root of the walk.
var ModelPackages = regexp.MustCompile(`^hwdp/internal/(mmu|smu|nvme|ssd)(/|$)`)

// Analyzer is the laneescape check.
var Analyzer = &analysis.Analyzer{
	Name: "laneescape",
	Doc: "prove transitively that device-side model code reaches no " +
		"package-level variable writes, sync/channel use, or goroutines",
	Run: run,
}

func run(pass *analysis.Pass) error {
	path := analysis.NormalizePkgPath(pass.Pkg.Path())
	if !ModelPackages.MatchString(path) {
		return nil
	}
	reg, ok := pass.Unit.Facts.(*callgraph.Registry)
	if !ok {
		return nil // fact-less driver: nothing to walk
	}
	seen := map[string]bool{}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			root := callgraph.DeclFuncKey(pass.TypesInfo, fd)
			if root == "" {
				continue
			}
			for _, finding := range reg.Reachable(root, "laneescape", false) {
				key := finding.Func + "|" + finding.Atom.Pos + "|" + finding.Atom.Kind
				if seen[key] {
					continue
				}
				seen[key] = true
				pos := finding.ReportPos()
				if !pos.IsValid() {
					pos = fd.Name.Pos()
				}
				pass.Reportf(pos, "model code %s reaches shared state: %s: %s at %s — state must live on a model component, not be shared across concurrent sweep units",
					callgraph.DisplayKey(root), callgraph.RenderChain(finding.Chain), finding.Atom.Msg, finding.Atom.Pos)
			}
		}
	}
	return nil
}

func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return len(name) > 8 && name[len(name)-8:] == "_test.go"
}
