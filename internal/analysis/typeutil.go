package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for calls through function-typed variables, conversions, and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	default:
		return nil
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsConversion reports whether the call expression is a type conversion
// (its Fun denotes a type, not a value).
func IsConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// NamedPathAndName returns the defining package path and type name of t
// after unwrapping pointers, or ("", "") for unnamed types and types
// without a package (error, builtins).
func NamedPathAndName(t types.Type) (path, name string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// IsSimTime reports whether t is (or points to) the sim.Time type —
// matched by package path and name so the testdata stub package
// participates identically.
func IsSimTime(t types.Type) bool {
	if t == nil {
		return false
	}
	path, name := NamedPathAndName(t)
	return name == "Time" && IsSimPkg(path)
}

// IsTimeDuration reports whether t is the standard library's
// time.Duration.
func IsTimeDuration(t types.Type) bool {
	if t == nil {
		return false
	}
	path, name := NamedPathAndName(t)
	return path == "time" && name == "Duration"
}

// EngineSchedulers is the set of sim.Engine scheduling methods. The values
// note which ones accept a bare func() closure (the allocation-prone form
// eventcapture steers away from).
var EngineSchedulers = map[string]bool{
	"Post":        true,  // Post(d, func())
	"PostArg":     false, // pre-bound callback plus argument: the preferred form
	"AtArgPooled": false,
}

// IsEngineScheduler reports whether fn is a scheduling method on
// sim.Engine, returning its name.
func IsEngineScheduler(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	path, name := NamedPathAndName(sig.Recv().Type())
	if name != "Engine" || !IsSimPkg(path) {
		return "", false
	}
	if _, known := EngineSchedulers[fn.Name()]; !known {
		return "", false
	}
	return fn.Name(), true
}

// CapturedVars lists the names of local variables a closure captures:
// identifiers resolving to function-scoped variables declared outside the
// closure body. Package-level variables, fields, and the closure's own
// parameters and locals are not captures. A closure with no captures
// compiles to a static function value and never allocates an environment.
func CapturedVars(info *types.Info, pkg *types.Package, lit *ast.FuncLit) []string {
	seen := map[*types.Var]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if !varInsideFunc(v, pkg) {
			return true // package-level or imported: static, no environment
		}
		if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
			return true // declared inside the closure (param or local)
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	sort.Strings(names)
	return names
}

// varInsideFunc reports whether v is declared in some function's scope (as
// opposed to package or universe scope) of pkg.
func varInsideFunc(v *types.Var, pkg *types.Package) bool {
	if v.Pkg() == nil || v.Pkg().Path() != pkg.Path() {
		return false
	}
	scope := v.Parent()
	if scope == nil {
		return false // fields, unresolved
	}
	return scope != v.Pkg().Scope() && scope != types.Universe
}

// FuncDecls indexes the package's function declarations by their type
// object, letting analyzers walk into same-package callees.
func FuncDecls(info *types.Info, files []*ast.File) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				m[fn] = fd
			}
		}
	}
	return m
}
