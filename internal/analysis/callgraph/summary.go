package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"hwdp/internal/analysis"
)

// Directive prefixes recognized on function doc comments.
const (
	// HotDirective marks a hotalloc walk root: the function must reach no
	// heap allocation.
	HotDirective = "//hwdp:hotpath"
	// ColdDirective (with a mandatory reason) stops the hotalloc walk:
	// the function is off the steady-state path by construction.
	ColdDirective = "//hwdp:coldpath"
)

// Summarize builds the package summary for one unit, adds it to the
// registry, and attaches the registry to the unit (Unit.Facts) for the
// analyzers. Dependencies must be summarized into the same registry first,
// in dependency order; SummarizeAll does that for a whole load.
//
// Non-module packages get an empty summary: the walk treats them as
// opaque, and allocating stdlib calls are recorded as atoms at the caller.
// Sites covered by a //hwdp:ignore hotalloc/sharedstate comment are dropped
// here — in the defining package, where the waiver can sit next to the
// code it excuses — and the waiver is marked used for the stale check.
func Summarize(u *analysis.Unit, reg *Registry) *PkgFacts {
	path := u.Pkg.Path()
	pf := &PkgFacts{Pkg: path, Funcs: map[string]*FuncFacts{}, Methods: map[string][]string{}}
	defer func() {
		reg.Add(pf)
		u.Facts = reg
	}()
	if !strings.HasPrefix(path, "hwdp") {
		return pf
	}
	s := &summarizer{u: u, pf: pf, pkg: path}
	for _, f := range u.Files {
		if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "init" {
				// init runs once at construction, before any unit starts and
				// before the alloc pins measure; it is neither a root nor
				// a callee (and multiple init funcs would collide on one
				// key).
				continue
			}
			fn, _ := u.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			key := localFuncKey(fn)
			ff := &FuncFacts{}
			ff.Hot, ff.Cold = parseDirectives(fd.Doc)
			pf.Funcs[key] = ff
			s.walkFunc(key, ff, fd.Body)
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				sel := fn.Name() + "|" + sigString(sig)
				pf.Methods[sel] = append(pf.Methods[sel], key)
			}
		}
	}
	for _, keys := range pf.Methods {
		sort.Strings(keys)
	}
	return pf
}

// SummarizeAll summarizes a whole in-process load into one fresh
// registry, each unit after the units it imports, so cross-package walks
// see complete facts. Imports outside units stay opaque.
func SummarizeAll(units []*analysis.Unit) *Registry {
	byPath := make(map[string]*analysis.Unit, len(units))
	for _, u := range units {
		byPath[u.Pkg.Path()] = u
	}
	reg := NewRegistry()
	done := make(map[string]bool, len(units))
	var visit func(u *analysis.Unit)
	visit = func(u *analysis.Unit) {
		path := u.Pkg.Path()
		if done[path] {
			return
		}
		done[path] = true
		imps := u.Pkg.Imports()
		paths := make([]string, 0, len(imps))
		for _, imp := range imps {
			paths = append(paths, imp.Path())
		}
		sort.Strings(paths)
		for _, p := range paths {
			if dep, ok := byPath[p]; ok {
				visit(dep)
			}
		}
		Summarize(u, reg)
	}
	for _, u := range units {
		visit(u)
	}
	return reg
}

// parseDirectives extracts //hwdp:hotpath and //hwdp:coldpath from a doc
// comment. A reason-less coldpath is returned as Cold="" with Hot
// untouched; the hotalloc analyzer validates and reports it.
func parseDirectives(doc *ast.CommentGroup) (hot bool, cold string) {
	if doc == nil {
		return false, ""
	}
	for _, c := range doc.List {
		switch {
		case c.Text == HotDirective || strings.HasPrefix(c.Text, HotDirective+" "):
			hot = true
		case c.Text == ColdDirective || strings.HasPrefix(c.Text, ColdDirective+" "):
			cold = strings.TrimSpace(strings.TrimPrefix(c.Text, ColdDirective))
		}
	}
	return hot, cold
}

// localFuncKey names a function within its package: "Name" for package
// functions, "(Recv).Name" for methods (pointer receivers normalized
// away).
func localFuncKey(fn *types.Func) string {
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		_, name := analysis.NamedPathAndName(sig.Recv().Type())
		if name == "" {
			name = "?"
		}
		return "(" + name + ")." + fn.Name()
	}
	return fn.Name()
}

// DeclFuncKey returns the global key of a declared function, or "" when
// the declaration did not type-check.
func DeclFuncKey(info *types.Info, fd *ast.FuncDecl) string {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return ""
	}
	return FuncKey(fn)
}

// FuncKey names a function globally ("pkgpath::local"), or "" for
// functions without a package (builtins).
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	return JoinKey(fn.Pkg().Path(), localFuncKey(fn))
}

// sigString renders a signature with the receiver stripped and parameter
// names erased, qualifying named types by full package path — the shared
// key shape for the method index and iface edges.
func sigString(sig *types.Signature) string {
	anon := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := 0; i < t.Len(); i++ {
			vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	stripped := types.NewSignatureType(nil, nil, nil, anon(sig.Params()), anon(sig.Results()), sig.Variadic())
	return types.TypeString(stripped, (*types.Package).Path)
}

// allocPkgs lists standard-library calls recorded as allocation atoms at
// the call site (the walk does not enter non-module packages). A nil set
// means every function in the package allocates for hot-path purposes.
var allocPkgs = map[string]map[string]bool{
	"fmt":           nil,
	"errors":        {"New": true, "Errorf": true, "Join": true},
	"strings":       {"Join": true, "Repeat": true, "Replace": true, "ReplaceAll": true, "Split": true, "SplitN": true, "Fields": true, "ToUpper": true, "ToLower": true, "Map": true, "Clone": true, "WriteString": true, "WriteByte": true, "WriteRune": true, "Write": true, "Grow": true, "String": true},
	"strconv":       {"Itoa": true, "FormatInt": true, "FormatUint": true, "FormatFloat": true, "Quote": true, "Unquote": true, "AppendInt": true, "AppendUint": true, "AppendFloat": true, "AppendQuote": true},
	"bytes":         {"Join": true, "Repeat": true, "Split": true, "Fields": true, "ToUpper": true, "ToLower": true, "Clone": true, "NewBuffer": true, "NewBufferString": true, "Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true, "Grow": true, "String": true},
	"sort":          {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true, "Strings": true, "Ints": true, "Float64s": true},
	"os":            nil,
	"io":            nil,
	"bufio":         nil,
	"log":           nil,
	"regexp":        nil,
	"encoding/json": nil,
	"math/big":      nil,
	"reflect":       nil,
}

// summarizer walks one package's function bodies.
type summarizer struct {
	u   *analysis.Unit
	pf  *PkgFacts
	pkg string
}

// walkFunc summarizes one function body into ff.
func (s *summarizer) walkFunc(key string, ff *FuncFacts, body ast.Node) {
	w := &funcWalker{
		s: s, key: key, ff: ff,
		callees: map[ast.Node]bool{},
		handled: map[ast.Node]bool{},
	}
	w.collectPanicSpans(body)
	ast.Inspect(body, w.visit)
}

// funcWalker holds per-function walk state.
type funcWalker struct {
	s    *summarizer
	key  string
	ff   *FuncFacts
	lits int
	// callees marks expressions serving as a call's function operand, so
	// the identifier visitors do not double-count them as value
	// references.
	callees map[ast.Node]bool
	// handled marks composite literals already reported through an
	// enclosing &-expression.
	handled map[ast.Node]bool
	// panicSpans are the argument ranges of panic(...) calls; allocations
	// feeding a panic are failure-path formatting, not steady-state heap
	// traffic.
	panicSpans [][2]token.Pos
}

func (w *funcWalker) collectPanicSpans(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := w.s.u.Info.Uses[id].(*types.Builtin); isBuiltin {
				w.panicSpans = append(w.panicSpans, [2]token.Pos{call.Lparen, call.Rparen})
			}
		}
		return true
	})
}

func (w *funcWalker) inPanic(pos token.Pos) bool {
	for _, sp := range w.panicSpans {
		if sp[0] <= pos && pos <= sp[1] {
			return true
		}
	}
	return false
}

// atom records one site unless a //hwdp:ignore at the site waives it.
func (w *funcWalker) atom(analyzer, kind string, pos token.Pos, format string, args ...any) {
	if w.s.u.Suppresses(analyzer, pos) {
		return
	}
	w.ff.Atoms = append(w.ff.Atoms, Atom{
		Analyzer: analyzer,
		Kind:     kind,
		Msg:      fmt.Sprintf(format, args...),
		Pos:      pos,
	})
}

// allocAtom records a hotalloc atom, subject to the panic-argument
// exemption.
func (w *funcWalker) allocAtom(kind string, pos token.Pos, format string, args ...any) {
	if w.inPanic(pos) {
		return
	}
	w.atom("hotalloc", kind, pos, format, args...)
}

// sharedAtom records a sharedstate atom.
func (w *funcWalker) sharedAtom(kind string, pos token.Pos, format string, args ...any) {
	w.atom("sharedstate", kind, pos, format, args...)
}

// edge records one outgoing edge.
func (w *funcWalker) edge(kind, target string, pos token.Pos) {
	w.ff.Edges = append(w.ff.Edges, Edge{Kind: kind, Target: target, Pos: pos})
}

func (w *funcWalker) visit(n ast.Node) bool {
	info := w.s.u.Info
	switch n := n.(type) {
	case *ast.FuncLit:
		w.lits++
		litKey := w.key + "$" + strconv.Itoa(w.lits)
		w.edge("ref", JoinKey(w.s.pkg, litKey), n.Pos())
		if caps := analysis.CapturedVars(info, w.s.u.Pkg, n); len(caps) > 0 {
			w.allocAtom("closure", n.Pos(), "closure capturing %s allocates its environment per call", strings.Join(caps, ", "))
		}
		litFF := &FuncFacts{}
		w.s.pf.Funcs[litKey] = litFF
		w.s.walkFunc(litKey, litFF, n.Body)
		return false
	case *ast.CallExpr:
		w.call(n)
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			w.pkgVarWrite(lhs)
			w.mapStore(lhs)
		}
		w.boxedAssign(n)
	case *ast.IncDecStmt:
		w.pkgVarWrite(n.X)
		w.mapStore(n.X)
	case *ast.GoStmt:
		w.sharedAtom("go", n.Pos(), "go statement starts a host-scheduled goroutine")
	case *ast.SendStmt:
		w.sharedAtom("chansend", n.Pos(), "channel send serializes on the host scheduler, not the virtual clock")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.sharedAtom("chanrecv", n.Pos(), "channel receive serializes on the host scheduler, not the virtual clock")
		}
		if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
			w.handled[lit] = true
			w.allocAtom("composite", n.Pos(), "&%s literal escapes to the heap", typeLabel(info, lit))
		}
	case *ast.CompositeLit:
		if !w.handled[n] {
			switch types.Unalias(underlying(info, n)).(type) {
			case *types.Slice:
				w.allocAtom("composite", n.Pos(), "slice literal %s allocates its backing array", typeLabel(info, n))
			case *types.Map:
				w.allocAtom("maplit", n.Pos(), "map literal %s allocates", typeLabel(info, n))
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv, ok := info.Types[n]; ok && tv.Value == nil && tv.Type != nil {
				if b, ok := types.Unalias(tv.Type.Underlying()).(*types.Basic); ok && b.Info()&types.IsString != 0 {
					w.allocAtom("concat", n.Pos(), "string concatenation allocates the result")
				}
			}
		}
	case *ast.SelectorExpr:
		w.syncUse(n)
		w.funcRef(n, n.Sel)
		w.handled[n.Sel] = true
	case *ast.Ident:
		if !w.handled[n] {
			w.funcRef(n, n)
		}
	}
	return true
}

// mapStore records a store into a map element (m[k] = v, m[k]++, m[k] op=
// v): inserting a key can grow the map, which allocates.
func (w *funcWalker) mapStore(lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if _, ok := types.Unalias(underlying(w.s.u.Info, ix.X)).(*types.Map); ok {
		w.allocAtom("mapstore", ix.Pos(), "store into map %s may grow it", typeLabel(w.s.u.Info, ix.X))
	}
}

// underlying returns the underlying type of an expression, or nil.
func underlying(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type.Underlying()
}

// typeLabel renders an expression's type compactly for messages.
func typeLabel(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return "composite"
	}
	return types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() })
}

// pkgVarWrite flags an assignment target resolving to a package-level
// variable (of this or any other package). A selector write (x.f = ...)
// mutates an object reached through a pointer, whose ownership is the
// components' contract; only bare package variables are flagged.
func (w *funcWalker) pkgVarWrite(lhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := w.s.u.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	w.sharedAtom("pkgwrite", lhs.Pos(), "write to package-level variable %s (shared by every machine in the process)", v.Name())
}

// syncUse flags sync / sync-atomic selector uses (types, functions and
// methods).
func (w *funcWalker) syncUse(sel *ast.SelectorExpr) {
	obj := w.s.u.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "sync", "sync/atomic":
		w.sharedAtom("sync", sel.Pos(), "%s.%s couples event outcomes to host-scheduler timing", obj.Pkg().Name(), obj.Name())
	}
}

// funcRef records a "ref" edge when a module function or method is used
// as a value (bound, stored, passed) rather than called: the binder makes
// it reachable. Binding a method with a receiver also allocates the bound
// closure.
func (w *funcWalker) funcRef(expr ast.Expr, id *ast.Ident) {
	if w.callees[expr] || w.callees[id] {
		return
	}
	fn, ok := w.s.u.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	fn = fn.Origin()
	if fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "hwdp") {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := expr.(*ast.SelectorExpr); ok {
			if s := w.s.u.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				w.allocAtom("methodvalue", expr.Pos(), "method value %s.%s allocates a bound closure", typeLabel(w.s.u.Info, sel.X), fn.Name())
			}
		}
		if types.IsInterface(sig.Recv().Type()) {
			return // abstract method reference: nothing concrete to walk
		}
	}
	w.edge("ref", FuncKey(fn), expr.Pos())
}

// markCallee tags a call's function operand so the reference visitors
// skip it.
func (w *funcWalker) markCallee(fun ast.Expr) {
	fun = ast.Unparen(fun)
	w.callees[fun] = true
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		w.callees[f.Sel] = true
	case *ast.IndexExpr:
		w.markCallee(f.X)
	case *ast.IndexListExpr:
		w.markCallee(f.X)
	}
}

// call handles one call expression: builtin allocation atoms, conversion
// boxing, call/iface edges, stdlib allocation atoms, and argument boxing.
func (w *funcWalker) call(call *ast.CallExpr) {
	info := w.s.u.Info
	fun := ast.Unparen(call.Fun)
	w.markCallee(call.Fun)

	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new":
				w.allocAtom("new", call.Pos(), "new(%s) allocates", exprLabel(call.Args, 0))
			case "make":
				switch types.Unalias(underlying(info, call)).(type) {
				case *types.Slice:
					w.allocAtom("make", call.Pos(), "make of slice %s allocates", exprLabel(call.Args, 0))
				case *types.Map:
					w.allocAtom("make", call.Pos(), "make of map %s allocates", exprLabel(call.Args, 0))
				case *types.Chan:
					w.allocAtom("make", call.Pos(), "make of chan %s allocates", exprLabel(call.Args, 0))
					w.sharedAtom("chanmake", call.Pos(), "channel creation in model-reachable code")
				}
			case "append":
				w.allocAtom("append", call.Pos(), "append may grow the backing array")
			}
			return
		}
	}

	if analysis.IsConversion(info, call) {
		tv := info.Types[call.Fun]
		if len(call.Args) == 1 {
			w.boxAtom(tv.Type, call.Args[0])
			w.stringConvAtom(tv.Type, call.Args[0], call.Pos())
		}
		return
	}

	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		// Call through a function-typed value: the binding site already
		// contributed a ref edge; still check argument boxing.
		if sig, ok := types.Unalias(underlying(info, call.Fun)).(*types.Signature); ok {
			w.boxArgs(sig, call)
		}
		return
	}
	fn = fn.Origin()
	sig, _ := fn.Type().(*types.Signature)
	if fn.Pkg() == nil {
		return
	}
	ppath := fn.Pkg().Path()
	denylisted := false
	if !strings.HasPrefix(ppath, "hwdp") {
		if fns, ok := allocPkgs[ppath]; ok && (fns == nil || fns[fn.Name()]) {
			w.allocAtom("stdcall", call.Pos(), "call to %s.%s allocates", fn.Pkg().Name(), fn.Name())
			denylisted = true
		}
	} else if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		w.edge("iface", fn.Name()+"|"+sigString(sig), call.Pos())
	} else {
		w.edge("call", FuncKey(fn), call.Pos())
	}
	if sig != nil && !denylisted {
		w.boxArgs(sig, call)
	}
}

// exprLabel renders the i'th argument's source text-ish label (its type
// for make/new) without failing on short argument lists.
func exprLabel(args []ast.Expr, i int) string {
	if i >= len(args) {
		return "?"
	}
	if id, ok := args[i].(*ast.Ident); ok {
		return id.Name
	}
	return "type"
}

// boxArgs reports arguments boxed into interface parameters.
func (w *funcWalker) boxArgs(sig *types.Signature, call *ast.CallExpr) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			if sl, ok := types.Unalias(params.At(params.Len() - 1).Type().Underlying()).(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		w.boxAtom(pt, arg)
	}
}

// boxedAssign reports non-pointer-shaped concrete values assigned into
// interface-typed destinations.
func (w *funcWalker) boxedAssign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i := range n.Lhs {
		if tv, ok := w.s.u.Info.Types[n.Lhs[i]]; ok && tv.Type != nil {
			w.boxAtom(tv.Type, n.Rhs[i])
		}
	}
}

// boxAtom records an interface-boxing allocation when a concrete,
// non-pointer-shaped, non-constant value converts to an interface type.
func (w *funcWalker) boxAtom(dst types.Type, e ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := w.s.u.Info.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return
	}
	t := tv.Type
	if types.IsInterface(t) || pointerShaped(t) {
		return
	}
	w.allocAtom("box", e.Pos(), "%s value boxed into %s (heap-allocated interface data)",
		types.TypeString(t, func(p *types.Package) string { return p.Name() }),
		types.TypeString(dst, func(p *types.Package) string { return p.Name() }))
}

// pointerShaped reports whether values of t fit an interface data word
// without allocation (pointers, channels, maps, funcs, unsafe.Pointer).
func pointerShaped(t types.Type) bool {
	switch u := types.Unalias(t.Underlying()).(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// stringConvAtom records string<->[]byte/[]rune conversion allocations.
func (w *funcWalker) stringConvAtom(dst types.Type, e ast.Expr, pos token.Pos) {
	tv, ok := w.s.u.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil || dst == nil {
		return
	}
	from, to := tv.Type.Underlying(), dst.Underlying()
	if isString(from) && isByteOrRuneSlice(to) {
		w.allocAtom("strconv", pos, "string to %s conversion copies and allocates", typeString(dst))
	}
	if isByteOrRuneSlice(from) && isString(to) {
		w.allocAtom("strconv", pos, "%s to string conversion copies and allocates", typeString(tv.Type))
	}
}

func isString(t types.Type) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := types.Unalias(t).(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(sl.Elem().Underlying()).(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
