// Package hotalloc turns the miss-path allocation pins (AllocsPerRun in
// internal/smu and internal/sim, BenchmarkHandleMiss) into a static
// guarantee: from every function annotated
//
//	//hwdp:hotpath
//
// it walks all transitively reachable callees through the callgraph facts
// and diagnoses anything that can touch the heap — escaping composite
// literals, closure-environment captures, interface-conversion boxing,
// append growth, map/slice/chan makes, map element stores (inserting a
// key can grow the map), string building, and allocating standard-library
// calls — reporting the callee chain that reaches the site.
//
// Descent stops at functions annotated
//
//	//hwdp:coldpath <reason>
//
// (failure/diagnostic paths that run off the steady state), inside
// //hwdp:pool accessors (pool growth is the amortized warm-up allocation
// the pins already discount), and inside panic(...) arguments. The
// annotations matter at the boundaries the call graph cannot see: event
// callbacks dispatched through pooled func values (the engine fire loop)
// are reached dynamically, not through a static edge, so each stage entry
// point on the miss path carries its own //hwdp:hotpath root.
//
// One rule needs no root: in hot-path packages, a closure handed to the
// engine's one closure-taking scheduling method, sim.Engine.Post, is
// reported when it captures local variables, because it allocates an
// environment on every call. The fix is a pre-bound method value
// (captures nothing) or the argument-passing forms PostArg / AtArgPooled,
// which carry the per-event state through a recycled carrier. Capture-free
// closures are allowed: the compiler hoists those to a single static
// closure. A site this rule reports is not reported again by the walk.
package hotalloc

import (
	"go/ast"
	"go/token"
	"strings"

	"hwdp/internal/analysis"
	"hwdp/internal/analysis/callgraph"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "prove //hwdp:hotpath functions reach no heap allocation " +
		"(composite escapes, closures, boxing, append growth, map stores, " +
		"allocating stdlib calls), reporting the reaching call chain, and flag " +
		"capturing closures passed to sim.Engine.Post in hot-path packages",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(analysis.NormalizePkgPath(pass.Pkg.Path()), "hwdp") {
		return nil
	}
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			hot, cold, coldSeen := directives(fd.Doc)
			if coldSeen && cold == "" {
				pass.Reportf(fd.Name.Pos(), "//hwdp:coldpath needs a reason: say why %s is off the steady-state path", fd.Name.Name)
			}
			if hot && coldSeen {
				pass.Reportf(fd.Name.Pos(), "%s is marked both //hwdp:hotpath and //hwdp:coldpath — pick one", fd.Name.Name)
			}
			if hot && fd.Body != nil {
				roots = append(roots, fd)
			}
		}
	}
	posted := map[token.Pos]bool{}
	if analysis.IsHotPathPkg(pass.Pkg.Path()) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkPost(pass, call, posted)
				}
				return true
			})
		}
	}
	reg, ok := pass.Unit.Facts.(*callgraph.Registry)
	if !ok {
		return nil // fact-less driver: local checks only
	}
	seen := map[string]bool{}
	for _, fd := range roots {
		root := callgraph.DeclFuncKey(pass.TypesInfo, fd)
		if root == "" {
			continue
		}
		for _, finding := range reg.Reachable(root, "hotalloc", true) {
			key := finding.Func + "|" + finding.Atom.Pos + "|" + finding.Atom.Kind
			if seen[key] || posted[finding.SitePos()] {
				continue
			}
			seen[key] = true
			pos := finding.ReportPos()
			if !pos.IsValid() {
				pos = fd.Name.Pos()
			}
			if len(finding.Chain) == 0 {
				pass.Reportf(pos, "hot path %s: %s — the miss path must stay allocation-free (pool the object, pre-bind the callback, or mark the branch //hwdp:coldpath <reason>)",
					callgraph.DisplayKey(root), finding.Atom.Msg)
				continue
			}
			pass.Reportf(pos, "hot path %s reaches a heap allocation: %s: %s at %s — pool it, pre-bind it, or mark the branch //hwdp:coldpath <reason>",
				callgraph.DisplayKey(root), callgraph.RenderChain(finding.Chain), finding.Atom.Msg, finding.Atom.Pos)
		}
	}
	return nil
}

// checkPost reports a capturing closure passed to a sim.Engine
// scheduling method that takes a bare func() (Post), recording its
// position in posted.
func checkPost(pass *analysis.Pass, call *ast.CallExpr, posted map[token.Pos]bool) {
	name, ok := analysis.IsEngineScheduler(analysis.CalleeFunc(pass.TypesInfo, call))
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
		posted[lit.Pos()] = true
		vars := "variable " + caps[0]
		if len(caps) > 1 {
			vars = "variables " + strings.Join(caps, ", ")
		}
		pass.Reportf(lit.Pos(), "closure passed to sim.Engine.%s captures %s, allocating a closure environment per event on the hot path: use a pre-bound callback or the pooled PostArg/AtArgPooled forms",
			name, vars)
	}
}

// directives parses the hotpath/coldpath annotations off a doc comment,
// reporting whether a coldpath directive was present at all (so a
// reason-less one can be diagnosed).
func directives(doc *ast.CommentGroup) (hot bool, cold string, coldSeen bool) {
	if doc == nil {
		return false, "", false
	}
	for _, c := range doc.List {
		switch {
		case c.Text == callgraph.HotDirective || strings.HasPrefix(c.Text, callgraph.HotDirective+" "):
			hot = true
		case c.Text == callgraph.ColdDirective || strings.HasPrefix(c.Text, callgraph.ColdDirective+" "):
			coldSeen = true
			cold = strings.TrimSpace(strings.TrimPrefix(c.Text, callgraph.ColdDirective))
		}
	}
	return hot, cold, coldSeen
}
