// Package simtime enforces unit discipline on sim.Time (int64
// picoseconds). Three mistakes can silently mis-calibrate every latency in
// the reproduction, and all three are caught here:
//
//  1. A bare numeric constant flowing into a sim.Time context ("Post(500,
//     ...)" — 500 what?). Durations must carry a unit: a sim unit constant
//     (sim.Nanosecond), a helper (sim.Cycles, sim.Micro, sim.NS), or
//     another sim.Time value. Scalar multipliers on unit-carrying
//     expressions ("2*t.ReqRegWrite") are fine, as is the zero value.
//
//  2. A time.Duration converted directly to sim.Time. Duration is
//     nanoseconds, sim.Time is picoseconds: "sim.Time(d)" is a silent
//     1000x error. sim.FromDuration does the rescale.
//
//  3. A redundant conversion sim.Time(x) where x is already sim.Time —
//     harmless today, but it hides mistakes of class 1 and 2 during
//     refactors, so it is kept out of the tree.
//
// The sim package itself (where the unit constants and helpers are
// defined) is exempt.
package simtime

import (
	"go/ast"
	"go/types"

	"hwdp/internal/analysis"
)

// Analyzer is the simtime check.
var Analyzer = &analysis.Analyzer{
	Name: "simtime",
	Doc: "flag unit-less constants used as sim.Time, time.Duration-to-sim.Time " +
		"conversions (a 1000x ns/ps error), and redundant sim.Time conversions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == analysis.SimPackagePath {
		return nil // the unit conversions themselves live in sim
	}
	for _, f := range pass.Files {
		checkFile(pass, f)
	}
	return nil
}

// checkFile walks one file with parent tracking, looking for maximal
// sim.Time-typed expressions to classify.
func checkFile(pass *analysis.Pass, f *ast.File) {
	// parents maps each expression to its enclosing expression, so a
	// literal can climb to the outermost sim.Time expression it is part
	// of.
	parents := map[ast.Expr]ast.Expr{}
	ast.Inspect(f, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		for _, child := range childExprs(e) {
			parents[child] = e
		}
		return true
	})

	// Operands of explicit sim.Time(...) conversions are owned by
	// checkConversion; the literal walk skips them so each mistake is
	// reported exactly once.
	conversionArgs := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && len(call.Args) == 1 && analysis.IsConversion(pass.TypesInfo, call) &&
			analysis.IsSimTime(typeOf(pass, call.Fun)) {
			conversionArgs[ast.Unparen(call.Args[0])] = true
		}
		return true
	})

	seen := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkConversion(pass, n)
		case *ast.BasicLit:
			if !analysis.IsSimTime(typeOf(pass, n)) {
				return true
			}
			m := maximalTimeExpr(pass, parents, n)
			if seen[m] || conversionArgs[m] || conversionArgs[ast.Expr(n)] {
				return true
			}
			seen[m] = true
			checkBareConstant(pass, m)
		}
		return true
	})
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

// childExprs lists the direct expression children of e that can carry a
// sim.Time type.
func childExprs(e ast.Expr) []ast.Expr {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return []ast.Expr{e.X, e.Y}
	case *ast.UnaryExpr:
		return []ast.Expr{e.X}
	case *ast.ParenExpr:
		return []ast.Expr{e.X}
	}
	return nil
}

// maximalTimeExpr climbs from lit to the outermost enclosing expression
// that still has type sim.Time (through parens and +,-,*,/,%,<< arithmetic).
func maximalTimeExpr(pass *analysis.Pass, parents map[ast.Expr]ast.Expr, lit ast.Expr) ast.Expr {
	cur := lit
	for {
		p, ok := parents[cur]
		if !ok || !analysis.IsSimTime(typeOf(pass, p)) {
			return cur
		}
		cur = p
	}
}

// mentionsTimeValue reports whether some identifier under e denotes a
// sim.Time-typed value (constant, variable, or field) — the marker that a
// unit has been attached. Type names do not count, so the conversion
// sim.Time(5000) is still unit-less.
func mentionsTimeValue(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if _, isType := obj.(*types.TypeName); !isType && analysis.IsSimTime(obj.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkBareConstant reports m when it is a sim.Time expression built from
// literals alone: no unit constant, no Time-typed variable, no call.
func checkBareConstant(pass *analysis.Pass, m ast.Expr) {
	tv, ok := pass.TypesInfo.Types[m]
	if !ok || tv.Value == nil {
		return // non-constant: some operand carries the unit dynamically
	}
	if mentionsTimeValue(pass, m) {
		return
	}
	if v := tv.Value.String(); v == "0" {
		return
	}
	pass.Reportf(m.Pos(), "unit-less constant %s used as sim.Time (picoseconds): attach a unit (e.g. 5*sim.Microsecond, sim.Cycles(5), sim.Nano(5))", tv.Value)
}

// checkConversion reports sim.Time(x) conversions from time.Duration
// (class 2), from sim.Time itself (class 3), and from unit-less constants
// (class 1 spelled as an explicit conversion).
func checkConversion(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 || !analysis.IsConversion(pass.TypesInfo, call) {
		return
	}
	if !analysis.IsSimTime(typeOf(pass, call.Fun)) {
		return
	}
	arg := call.Args[0]
	argT := typeOf(pass, arg)
	tv, hasTV := pass.TypesInfo.Types[arg]
	switch {
	case analysis.IsTimeDuration(argT):
		pass.Reportf(call.Pos(), "time.Duration (nanoseconds) converted directly to sim.Time (picoseconds) is a 1000x unit error: use sim.FromDuration")
	case hasTV && tv.Value != nil && !mentionsTimeValue(pass, arg):
		// A constant operand with no unit attached. (go/types records the
		// converted-to type for untyped constant operands, so this case
		// must precede the redundant-conversion one.)
		if tv.Value.String() != "0" {
			pass.Reportf(call.Pos(), "unit-less constant %s used as sim.Time (picoseconds): attach a unit (e.g. 5*sim.Microsecond, sim.Cycles(5), sim.Nano(5))", tv.Value)
		}
	case analysis.IsSimTime(argT):
		pass.Reportf(call.Pos(), "redundant conversion: the operand is already sim.Time (drop the sim.Time(...) wrapper)")
	}
}
