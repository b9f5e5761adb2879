// Package simdeterminism rejects sources of nondeterminism inside the
// simulator's hot-path packages: wall-clock reads, the global math/rand
// generators, and map iteration whose body has order-dependent effects.
// Fixed-seed bit-reproducibility (the golden SHA-256 pin and every figure
// regeneration) depends on none of these appearing in model code.
// Goroutine spawns are sharedstate's to report.
package simdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"hwdp/internal/analysis"
)

// Analyzer is the simdeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock time, global math/rand, time.Sleep, and map " +
		"iteration with order-dependent effects in simulator packages",
	Run: run,
}

// wallClockFuncs are the package-level time functions that read or depend
// on the host clock (or block on it). time.Duration arithmetic and
// constants are fine; these are not.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// pureNames matches cross-package calls that are read-only by convention
// and therefore safe to make in map-iteration order.
var pureNames = regexp.MustCompile(`^(Len|Cap|Size|String|Name|Now|Stats|Value|Count|Sum|Mean|Min|Max|Percentile|Buffered|Space|Depth|Pops|Refills|Is[A-Z].*|Has[A-Z].*|Present|Pending)$`)

// maxCalleeDepth bounds the taint walk into same-package callees from a
// map-range body.
const maxCalleeDepth = 2

func run(pass *analysis.Pass) error {
	if !analysis.IsHotPathPkg(pass.Pkg.Path()) {
		return nil
	}
	decls := analysis.FuncDecls(pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, decls)
			}
			return true
		})
	}
	return nil
}

// checkCall flags wall-clock and global-rand calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch fn.Pkg().Path() {
	case "time":
		if !isMethod && wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads (or blocks on) the host clock: simulation code must use the engine's virtual clock (sim.Engine.Now)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !isMethod {
			pass.Reportf(call.Pos(), "global %s.%s uses shared, unseeded-per-run state: use the per-thread sim.Rand streams instead", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange flags `range m` over a map whose body has order-dependent
// effects: posting events, writing metrics, emitting output, or calling
// into another hot-path component. Collecting keys into a slice (and
// sorting) is the sanctioned pattern and is not flagged.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, decls map[*types.Func]*ast.FuncDecl) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	w := &effectWalker{pass: pass, decls: decls, visited: make(map[*types.Func]bool)}
	if eff, pos := w.findEffect(rng.Body, 0); eff != "" {
		pass.Reportf(rng.Pos(), "map iteration order is random, and this loop's body %s (at %s): iterate a sorted key slice instead",
			eff, pass.Fset.Position(pos))
	}
}

// effectWalker scans a statement tree (and, depth-limited, same-package
// callees) for order-dependent effects.
type effectWalker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	visited map[*types.Func]bool
}

// findEffect returns a description and position of the first
// order-dependent effect found under n, or ("", NoPos).
func (w *effectWalker) findEffect(n ast.Node, depth int) (effect string, pos token.Pos) {
	ast.Inspect(n, func(m ast.Node) bool {
		if effect != "" {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if e, p := w.classifyCall(call, depth); e != "" {
			effect, pos = e, p
			return false
		}
		return true
	})
	return effect, pos
}

// classifyCall decides whether one call is an order-dependent effect,
// recursing into same-package callees up to maxCalleeDepth.
func (w *effectWalker) classifyCall(call *ast.CallExpr, depth int) (string, token.Pos) {
	fn := analysis.CalleeFunc(w.pass.TypesInfo, call)
	if fn == nil {
		// A call through a function-typed value (callback): its effects
		// are unknowable statically; treat as effectful. Closures invoked
		// in map order are exactly how ordering bugs escape.
		if analysis.IsConversion(w.pass.TypesInfo, call) {
			return "", token.NoPos
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := w.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return "", token.NoPos
			}
		}
		return "invokes a dynamic callback", call.Pos()
	}
	if name, ok := analysis.IsEngineScheduler(fn); ok {
		return "posts events (sim.Engine." + name + ")", call.Pos()
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return "", token.NoPos // builtins like error.Error
	}
	path := pkg.Path()
	switch path {
	case "hwdp/internal/metrics":
		return "writes metrics (" + fn.Name() + ")", call.Pos()
	case "fmt":
		if n := fn.Name(); n == "Print" || n == "Println" || n == "Printf" ||
			n == "Fprint" || n == "Fprintln" || n == "Fprintf" {
			return "writes output (fmt." + n + ")", call.Pos()
		}
		return "", token.NoPos
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return "writes output (" + fn.Name() + ")", call.Pos()
		}
	}
	// Same-package callee: walk into its body (the "small taint walk").
	if path == w.pass.Pkg.Path() {
		if depth >= maxCalleeDepth || w.visited[fn] {
			return "", token.NoPos
		}
		decl := w.decls[fn]
		if decl == nil || decl.Body == nil {
			return "", token.NoPos
		}
		w.visited[fn] = true
		if eff, _ := w.findEffect(decl.Body, depth+1); eff != "" {
			return "calls " + fn.Name() + ", which " + eff, call.Pos()
		}
		return "", token.NoPos
	}
	// Cross-package call into another hot-path component: state mutation
	// there happens in map order (e.g. allocator pops, queue pushes).
	if analysis.IsHotPathPkg(path) && !pureNames.MatchString(fn.Name()) {
		return "calls into " + path + " (" + fn.Name() + ")", call.Pos()
	}
	return "", token.NoPos
}
