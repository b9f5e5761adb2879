// Package lanesafety rejects state-sharing patterns in simulator model
// packages. `hwdpbench -j N` (internal/sweep) runs independent run units
// — each one a whole simulated machine — concurrently in one process, so a
// model package may only mutate state owned by a component of its own
// machine. The analyzer flags, in hot-path packages:
//
//   - writes to package-level variables from function bodies — a package
//     var is shared by every machine in the process, so a write is a data
//     race under sweep -j and a determinism hazard even when it happens to
//     be race-free (one unit's output must not depend on which units run
//     beside it);
//   - sync primitives and channel operations. Locks "fix" the race the
//     first check exposes but reintroduce host-scheduling order into the
//     model; hand-offs between components must be engine events, which
//     fire in virtual-time order.
//
// Initialization at declaration and in init functions is not flagged:
// both run once, before any unit starts.
package lanesafety

import (
	"go/ast"
	"go/types"

	"hwdp/internal/analysis"
)

// Analyzer is the lanesafety check.
var Analyzer = &analysis.Analyzer{
	Name: "lanesafety",
	Doc: "forbid package-variable writes and sync/channel coordination in " +
		"simulator model packages: concurrent sweep units must share no " +
		"mutable state, and hand-offs must be engine events",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsHotPathPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inInit := fd.Recv == nil && fd.Name.Name == "init"
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if !inInit {
						for _, lhs := range n.Lhs {
							checkPkgVarWrite(pass, lhs)
						}
					}
				case *ast.IncDecStmt:
					if !inInit {
						checkPkgVarWrite(pass, n.X)
					}
				case *ast.SendStmt:
					pass.Reportf(n.Pos(), "channel send in model code: it serializes on the host scheduler, not the virtual clock; schedule the hand-off as an engine event instead")
				case *ast.UnaryExpr:
					if n.Op.String() == "<-" {
						pass.Reportf(n.Pos(), "channel receive in model code: it serializes on the host scheduler, not the virtual clock; schedule the hand-off as an engine event instead")
					}
				case *ast.SelectorExpr:
					checkSyncUse(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkPkgVarWrite flags an assignment target that resolves to a
// package-level variable (of this or any other package).
func checkPkgVarWrite(pass *analysis.Pass, lhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		// A selector write (x.f = ...) mutates an object reached through a
		// pointer; object ownership is the components' contract, not
		// statically checkable here. Only bare package vars are flagged.
		return
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return
	}
	// Package-level variables are exactly those whose parent scope is the
	// package scope.
	if v.Parent() != v.Pkg().Scope() {
		return
	}
	pass.Reportf(lhs.Pos(), "write to package-level variable %s: package state is shared by every machine in the process (data race under sweep -j); move it onto a model component or initialize it at declaration", v.Name())
}

// checkSyncUse flags any use of a sync / sync-atomic object (type, func,
// or method) inside a model-package function body.
func checkSyncUse(pass *analysis.Pass, e *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[e.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "sync", "sync/atomic":
		pass.Reportf(e.Pos(), "%s.%s in model code: host-scheduler synchronization makes event outcomes depend on host timing; coordinate components with engine events instead", obj.Pkg().Name(), obj.Name())
	}
}
