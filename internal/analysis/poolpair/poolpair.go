// Package poolpair verifies pooled-object discipline: every record taken
// from a sim.Pool must, on every control-flow path, either be handed back
// to its pool or handed off (stored, returned, passed on, or captured —
// ownership transfer). It is the static twin of the dynamic
// frame-conservation property test: the property test catches a leak when
// a run happens to execute the leaky path; poolpair rejects the path at
// vet time.
//
// The pool type carries what the check needs. An acquire is a call of
// sim.Pool's Get and a release a call of its Put, matched through the
// method's origin against the sim package path, so every pool in every
// package is checked without annotations:
//
//	c := s.reqs.Get()
//	...
//	s.reqs.Put(c)
//
// A record handed to the engine comes back as its callback's argument,
// and the callback owns it again: unpacking a pooled type from an
// interface value (c := a.(*pendingReq), for a T some sim.Pool[T] of the
// package holds) is an acquire too, so a callback that forgets the Put is
// reported.
//
// The analysis is flow-sensitive over structured control flow (if/else,
// switch, return, defer) and deliberately lenient around loops, gotos and
// anything it cannot classify: a false "leak" report on correct code is
// worse than a missed one, since the dynamic property test still backstops
// the latter.
package poolpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"hwdp/internal/analysis"
)

// Analyzer is the poolpair check.
var Analyzer = &analysis.Analyzer{
	Name: "poolpair",
	Doc: "check that every sim.Pool Get reaches a matching Put or ownership " +
		"hand-off on all return and error paths",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, pooled: map[types.Type]bool{}}
	for id, inst := range pass.TypesInfo.Instances {
		obj := pass.TypesInfo.Uses[id]
		if obj != nil && obj.Name() == "Pool" && obj.Pkg() != nil &&
			obj.Pkg().Path() == analysis.SimPackagePath && inst.TypeArgs.Len() == 1 {
			c.pooled[inst.TypeArgs.At(0)] = true
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil
}

// poolGet returns the pool operand of a call of sim.Pool's Get, as
// source text ("s.reqs"), or ok false for any other call.
func (c *checker) poolGet(e ast.Expr) (pool string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Get" {
		return "", false
	}
	sig, _ := fn.Origin().Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	if path, name := analysis.NamedPathAndName(sig.Recv().Type()); name != "Pool" || path != analysis.SimPackagePath {
		return "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	return types.ExprString(sel.X), true
}

type checker struct {
	pass *analysis.Pass
	// pooled holds T for every sim.Pool[T] the package instantiates.
	pooled map[types.Type]bool
}

// unpacked reports whether e unpacks a pooled record from an interface
// value (an event callback's argument): arg.(*T) for a pooled T.
func (c *checker) unpacked(e ast.Expr) bool {
	ta, isAssert := ast.Unparen(e).(*ast.TypeAssertExpr)
	if !isAssert || ta.Type == nil {
		return false
	}
	ptr, isPtr := c.pass.TypesInfo.TypeOf(ta.Type).(*types.Pointer)
	return isPtr && c.pooled[ptr.Elem()]
}

// checkFunc finds each acquire in the function (including inside closures)
// and verifies the acquired object is consumed on all paths.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	var bodies []*ast.BlockStmt
	bodies = append(bodies, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, fl.Body)
		}
		return true
	})
	for _, body := range bodies {
		c.checkBody(body)
	}
}

// checkBody scans one function or closure body's statement tree for
// acquire statements and runs the path analysis on each.
func (c *checker) checkBody(body *ast.BlockStmt) {
	var walkList func(stmts []ast.Stmt, frames [][]ast.Stmt)
	walkList = func(stmts []ast.Stmt, frames [][]ast.Stmt) {
		for i, s := range stmts {
			if obj, pool, pos, ok := c.acquireIn(s); ok {
				c.analyze(obj, pool, pos, stmts[i+1:], frames)
			}
			// Recurse into nested statement lists, tracking enclosing
			// frames so the analysis can continue past block ends. Loop
			// bodies get a nil frame barrier: falling off a loop body is
			// a leak (the next iteration re-acquires).
			rest := stmts[i+1:]
			switch s := s.(type) {
			case *ast.BlockStmt:
				walkList(s.List, append(frames, rest))
			case *ast.IfStmt:
				walkList(s.Body.List, append(frames, rest))
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					walkList(e.List, append(frames, rest))
				case *ast.IfStmt:
					walkList([]ast.Stmt{e}, append(frames, rest))
				}
			case *ast.ForStmt:
				walkList(s.Body.List, append(frames, nil))
			case *ast.RangeStmt:
				walkList(s.Body.List, append(frames, nil))
			case *ast.SwitchStmt:
				for _, cc := range s.Body.List {
					if cl, ok := cc.(*ast.CaseClause); ok {
						walkList(cl.Body, append(frames, rest))
					}
				}
			case *ast.TypeSwitchStmt:
				for _, cc := range s.Body.List {
					if cl, ok := cc.(*ast.CaseClause); ok {
						walkList(cl.Body, append(frames, rest))
					}
				}
			case *ast.SelectStmt:
				for _, cc := range s.Body.List {
					if cl, ok := cc.(*ast.CommClause); ok {
						walkList(cl.Body, append(frames, nil))
					}
				}
			case *ast.LabeledStmt:
				walkList([]ast.Stmt{s.Stmt}, append(frames, rest))
			}
		}
	}
	walkList(body.List, nil)
}

// acquireIn matches `x := pool.Get()` (or `=`), `x := arg.(*T)` for a
// pooled T, and bare `pool.Get()` statements, returning the bound object
// (nil when the result is discarded) and the pool: its source text, or
// "" for an unpacked record.
func (c *checker) acquireIn(s ast.Stmt) (obj types.Object, pool string, pos token.Pos, ok bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 || len(s.Lhs) != 1 {
			return nil, "", token.NoPos, false
		}
		pool, isGet := c.poolGet(s.Rhs[0])
		if !isGet {
			if !c.unpacked(s.Rhs[0]) {
				return nil, "", token.NoPos, false
			}
		}
		id, isIdent := s.Lhs[0].(*ast.Ident)
		if !isIdent {
			// Stored into a field or an element: a hand-off.
			return nil, "", token.NoPos, false
		}
		if id.Name == "_" {
			return nil, pool, s.Rhs[0].Pos(), true
		}
		o := c.pass.TypesInfo.Defs[id]
		if o == nil {
			o = c.pass.TypesInfo.Uses[id]
		}
		if o == nil {
			return nil, "", token.NoPos, false
		}
		return o, pool, s.Rhs[0].Pos(), true
	case *ast.ExprStmt:
		if pool, isGet := c.poolGet(s.X); isGet {
			return nil, pool, s.X.Pos(), true // result dropped on the floor
		}
	}
	return nil, "", token.NoPos, false
}

// analyze checks that obj is consumed on every path through rest (then the
// enclosing frames). A nil obj means the acquire's result was discarded —
// an unconditional leak.
func (c *checker) analyze(obj types.Object, pool string, pos token.Pos, rest []ast.Stmt, frames [][]ast.Stmt) {
	if obj == nil {
		c.pass.Reportf(pos, "result of %s.Get is discarded: the pooled record leaks (hand it back with %s.Put)", pool, pool)
		return
	}
	res := c.consume(rest, obj)
	for i := len(frames) - 1; res == fell; i-- {
		if i < 0 {
			break
		}
		if frames[i] == nil {
			// Loop-body boundary: next iteration without a release.
			res = leaked
			break
		}
		res = c.consume(frames[i], obj)
	}
	if res == consumed {
		return
	}
	if pool == "" {
		typ := types.TypeString(obj.Type(), types.RelativeTo(c.pass.Pkg))
		c.pass.Reportf(pos, "pooled record %q (a %s unpacked from an event argument) is not released on every path: a path reaches function exit without its pool's Put or a hand-off", obj.Name(), typ)
		return
	}
	c.pass.Reportf(pos, "pooled record %q from %s is not released on every path: a path reaches function exit without %s.Put or a hand-off", obj.Name(), pool, pool)
}

type outcome int

const (
	consumed outcome = iota // released or ownership handed off on all paths
	fell                    // fell off the end of the list, still owned
	leaked                  // a path provably exits without release
)

func worst(a, b outcome) outcome {
	if a == leaked || b == leaked {
		return leaked
	}
	if a == fell || b == fell {
		return fell
	}
	return consumed
}

// consume walks a statement list and reports whether obj is consumed on
// every path through it.
func (c *checker) consume(stmts []ast.Stmt, obj types.Object) outcome {
	for i, s := range stmts {
		rest := stmts[i+1:]
		switch s := s.(type) {
		case *ast.BlockStmt:
			return c.consume(append(append([]ast.Stmt{}, s.List...), rest...), obj)
		case *ast.IfStmt:
			if ev := c.scanEvent(s.Init, obj); ev == evConsume {
				return consumed
			}
			thenRes := c.consume(append(append([]ast.Stmt{}, s.Body.List...), rest...), obj)
			var elseRes outcome
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseRes = c.consume(append(append([]ast.Stmt{}, e.List...), rest...), obj)
			case *ast.IfStmt:
				elseRes = c.consume(append([]ast.Stmt{e}, rest...), obj)
			default:
				elseRes = c.consume(rest, obj)
			}
			return worst(thenRes, elseRes)
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if c.mentions(r, obj) {
					return consumed // ownership returned to the caller
				}
			}
			return leaked
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			body := switchBody(s)
			res := consumed
			hasDefault := false
			for _, cc := range body {
				cl, ok := cc.(*ast.CaseClause)
				if !ok {
					continue
				}
				res = worst(res, c.consume(append(append([]ast.Stmt{}, cl.Body...), rest...), obj))
				if cl.List == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				res = worst(res, c.consume(rest, obj))
			}
			return res
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt:
			// Lenient: if the loop/select touches obj in a consuming way
			// on any path, assume the author got the iteration logic
			// right; a must-analysis over arbitrary loops is all noise.
			if c.scanEvent(s, obj) == evConsume {
				return consumed
			}
		case *ast.DeferStmt:
			if c.mentionsCall(s.Call, obj) {
				return consumed // deferred release covers every path
			}
		case *ast.BranchStmt:
			return consumed // lenient on break/continue/goto
		case *ast.LabeledStmt:
			return c.consume(append([]ast.Stmt{s.Stmt}, rest...), obj)
		default:
			switch c.scanEvent(s, obj) {
			case evConsume:
				return consumed
			case evPathEnd:
				return consumed // panic/fatal: the path dies owning the object
			}
		}
	}
	return fell
}

// switchBody extracts a switch statement's clause list.
func switchBody(s ast.Stmt) []ast.Stmt {
	switch s := s.(type) {
	case *ast.SwitchStmt:
		return s.Body.List
	case *ast.TypeSwitchStmt:
		return s.Body.List
	}
	return nil
}

type event int

const (
	evNone event = iota
	evConsume
	evPathEnd
)

// scanEvent inspects one simple statement (or an arbitrary subtree, for
// the lenient loop case) for a consuming use of obj or a path-ending call.
func (c *checker) scanEvent(n ast.Node, obj types.Object) event {
	if n == nil {
		return evNone
	}
	found := evNone
	ast.Inspect(n, func(m ast.Node) bool {
		if found != evNone {
			return false
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			if c.mentionsCall(m, obj) {
				found = evConsume
				return false
			}
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					found = evPathEnd
					return false
				}
			}
		case *ast.AssignStmt:
			// obj as a whole RHS value -> handed off; obj alone on the
			// LHS -> rebound (tracking ends).
			for _, r := range m.Rhs {
				if c.isObjValue(r, obj) || c.mentions(r, obj) && isCompositeOrCall(r) {
					found = evConsume
					return false
				}
			}
			for _, l := range m.Lhs {
				if c.isObjIdent(l, obj) {
					found = evConsume
					return false
				}
			}
		case *ast.SendStmt:
			if c.mentions(m.Value, obj) {
				found = evConsume
				return false
			}
		case *ast.FuncLit:
			// Captured by a closure: ownership escapes into it.
			if c.mentionsBody(m.Body, obj) {
				found = evConsume
			}
			return false
		}
		return true
	})
	return found
}

// mentionsCall reports whether a call passes obj as an argument or invokes
// a method on it — release, hand-off, or unknown callee: all consume.
func (c *checker) mentionsCall(call *ast.CallExpr, obj types.Object) bool {
	for _, a := range call.Args {
		if c.mentions(a, obj) {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.mentions(sel.X, obj) {
		return true
	}
	return false
}

// mentions reports whether obj's identifier appears anywhere under e.
func (c *checker) mentions(e ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// mentionsBody is mentions over a closure body.
func (c *checker) mentionsBody(b *ast.BlockStmt, obj types.Object) bool {
	return c.mentions(b, obj)
}

// isObjValue reports whether e is exactly obj (possibly parenthesized or
// address-taken) used as a value.
func (c *checker) isObjValue(e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	return c.isObjIdent(e, obj)
}

// isObjIdent reports whether e is obj's bare identifier.
func (c *checker) isObjIdent(e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && (c.pass.TypesInfo.Uses[id] == obj || c.pass.TypesInfo.Defs[id] == obj)
}

// isCompositeOrCall reports whether e builds a value that can embed obj
// (composite literal or call), i.e. a hand-off when assigned.
func isCompositeOrCall(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.CompositeLit, *ast.CallExpr:
		return true
	}
	return false
}
