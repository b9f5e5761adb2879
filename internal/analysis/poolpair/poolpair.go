// Package poolpair verifies pooled-object discipline: every value taken
// from an object pool must, on every control-flow path, either be handed
// back to its pool or handed off (stored, returned, passed on, or captured
// — ownership transfer). It is the static twin of the dynamic
// frame-conservation property test: the property test catches a leak when
// a run happens to execute the leaky path; poolpair rejects the path at
// vet time.
//
// Pools are declared, not guessed. A pool's accessors carry directives in
// their doc comments:
//
//	//hwdp:pool acquire req
//	func (s *SMU) getReq() *pendingReq { ... }
//
//	//hwdp:pool release req
//	func (s *SMU) putReq(c *pendingReq) { ... }
//
// An optional "result=N" selects which result of a multi-value acquire is
// the pooled object (default 0). Directives are package-local, matching
// the repo's pools, which are all unexported.
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
	"strconv"
	"strings"

	"hwdp/internal/analysis"
)

// Analyzer is the poolpair check.
var Analyzer = &analysis.Analyzer{
	Name: "poolpair",
	Doc: "check that every pooled acquire (//hwdp:pool acquire) reaches a matching " +
		"release or ownership hand-off on all return and error paths",
	Run: run,
}

// PoolDirective is the doc-comment prefix declaring a pool accessor.
const PoolDirective = "//hwdp:pool"

// accessor describes one annotated pool function.
type accessor struct {
	kind      string // "acquire" or "release"
	pool      string
	resultIdx int
}

// parseDirective parses one //hwdp:pool comment line; ok is false for
// non-directive lines. A malformed directive is reported by the caller.
func parseDirective(text string) (acc accessor, ok bool, malformed string) {
	if !strings.HasPrefix(text, PoolDirective) {
		return accessor{}, false, ""
	}
	fields := strings.Fields(strings.TrimPrefix(text, PoolDirective))
	if len(fields) < 2 || (fields[0] != "acquire" && fields[0] != "release") {
		return accessor{}, false, "want \"//hwdp:pool <acquire|release> <pool> [result=N]\""
	}
	acc = accessor{kind: fields[0], pool: fields[1]}
	for _, f := range fields[2:] {
		if v, found := strings.CutPrefix(f, "result="); found {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return accessor{}, false, "bad result index " + strconv.Quote(v)
			}
			acc.resultIdx = n
		} else {
			return accessor{}, false, "unknown option " + strconv.Quote(f)
		}
	}
	return acc, true, ""
}

func run(pass *analysis.Pass) error {
	acquires := make(map[*types.Func]accessor)
	releases := make(map[*types.Func]accessor)
	releaseName := make(map[string]string) // pool -> a release func name, for messages

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				acc, ok, malformed := parseDirective(c.Text)
				if malformed != "" {
					pass.Reportf(c.Pos(), "malformed pool directive: %s", malformed)
					continue
				}
				if !ok {
					continue
				}
				fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if acc.kind == "acquire" {
					acquires[fn] = acc
				} else {
					releases[fn] = acc
					releaseName[acc.pool] = fn.Name()
				}
			}
		}
	}
	if len(acquires) == 0 {
		return nil
	}
	for pool := range poolsOf(acquires) {
		if _, ok := releaseName[pool]; !ok {
			// Without a release the check cannot hold; surface the
			// misconfiguration at one acquire site.
			for fn, acc := range acquires {
				if acc.pool == pool {
					pass.Reportf(fn.Pos(), "pool %q has an acquire but no //hwdp:pool release in this package", pool)
					break
				}
			}
		}
	}

	c := &checker{pass: pass, acquires: acquires, releases: releases, releaseName: releaseName}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil
}

func poolsOf(m map[*types.Func]accessor) map[string]bool {
	out := make(map[string]bool)
	for _, acc := range m {
		out[acc.pool] = true
	}
	return out
}

type checker struct {
	pass        *analysis.Pass
	acquires    map[*types.Func]accessor
	releases    map[*types.Func]accessor
	releaseName map[string]string
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
			if obj, acc, pos, ok := c.acquireIn(s); ok {
				c.analyze(obj, acc, pos, stmts[i+1:], frames)
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

// acquireIn matches `x := pool.Get(...)` (or `=`) and bare `pool.Get(...)`
// statements, returning the bound object (nil when the result is
// discarded).
func (c *checker) acquireIn(s ast.Stmt) (obj types.Object, acc accessor, pos token.Pos, ok bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return nil, accessor{}, token.NoPos, false
		}
		call, isCall := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if !isCall {
			return nil, accessor{}, token.NoPos, false
		}
		fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
		a, isAcq := c.acquires[fn]
		if !isAcq {
			return nil, accessor{}, token.NoPos, false
		}
		if a.resultIdx >= len(s.Lhs) {
			return nil, a, call.Pos(), true // discarded results
		}
		id, isIdent := s.Lhs[a.resultIdx].(*ast.Ident)
		if !isIdent || id.Name == "_" {
			// Assigned into a field/index or blank: field stores are a
			// hand-off; blank is a discard we cannot track further.
			return nil, accessor{}, token.NoPos, false
		}
		o := c.pass.TypesInfo.Defs[id]
		if o == nil {
			o = c.pass.TypesInfo.Uses[id]
		}
		if o == nil {
			return nil, accessor{}, token.NoPos, false
		}
		return o, a, call.Pos(), true
	case *ast.ExprStmt:
		call, isCall := ast.Unparen(s.X).(*ast.CallExpr)
		if !isCall {
			return nil, accessor{}, token.NoPos, false
		}
		fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
		a, isAcq := c.acquires[fn]
		if !isAcq {
			return nil, accessor{}, token.NoPos, false
		}
		return nil, a, call.Pos(), true // result dropped on the floor
	}
	return nil, accessor{}, token.NoPos, false
}

// analyze checks that obj is consumed on every path through rest (then the
// enclosing frames). A nil obj means the acquire's result was discarded —
// an unconditional leak.
func (c *checker) analyze(obj types.Object, acc accessor, pos token.Pos, rest []ast.Stmt, frames [][]ast.Stmt) {
	relName := c.releaseName[acc.pool]
	if relName == "" {
		return // missing-release misconfiguration already reported
	}
	if obj == nil {
		c.pass.Reportf(pos, "result of pool %q acquire is discarded: the pooled object leaks (release with %s)", acc.pool, relName)
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
	if res != consumed {
		c.pass.Reportf(pos, "pooled object %q (pool %q) is not released on every path: a path reaches function exit without %s or a hand-off", obj.Name(), acc.pool, relName)
	}
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
