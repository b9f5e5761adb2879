// Package callgraph gives the analyzer suite an interprocedural spine: a
// per-package summary of each function's outgoing calls and
// interprocedurally-relevant sites ("atoms"), a class-hierarchy method
// index for resolving interface calls, and a registry that holds the
// summaries of every package in a load so analyzers can walk the call
// graph across package boundaries.
//
// SummarizeAll summarizes a whole in-process load (suite.RunAll, which
// the TestLintClean gate drives, and the analyzertest fixture harness) in
// dependency order into one registry and attaches it to every unit. Every
// unit of a load shares one token.FileSet, so the positions a summary
// records are valid in every package that walks it.
//
// The graph is a deliberate over-approximation, resolved class-hierarchy
// style:
//
//   - static calls and method calls on concrete types become direct edges;
//   - interface method calls become "iface" edges keyed by method name
//     plus receiver-less signature, resolved at walk time against every
//     concrete method of the same name and signature in the merged
//     registry (CHA: no points-to narrowing);
//   - a function or method referenced as a value (assigned, passed,
//     stored) becomes a "ref" edge, so callbacks are considered reachable
//     from the code that binds them rather than from the indirect call
//     sites that later invoke them.
//
// Calls through plain function-typed variables therefore do not add
// edges of their own: the binding site already did. Event-callback entry
// points that are only ever reached through pooled func-value dispatch
// (the engine's fire loop) must carry their own //hwdp:hotpath root
// annotation — see docs/ANALYSIS.md.
package callgraph

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"hwdp/internal/analysis"
)

// Atom is one interprocedurally-relevant site inside a function: a
// potential heap allocation (Analyzer "hotalloc") or a shared-state
// operation (Analyzer "sharedstate"). Atoms waived with //hwdp:ignore at
// their own line never enter the summary.
type Atom struct {
	// Analyzer names the check the atom feeds ("hotalloc" or
	// "sharedstate").
	Analyzer string
	// Kind is a stable short tag for the site class (e.g. "append",
	// "box", "pkgwrite").
	Kind string
	// Msg describes the site for diagnostics.
	Msg string
	// Pos is the site position.
	Pos token.Pos
}

// Edge is one outgoing call-graph edge of a function.
type Edge struct {
	// Kind is "call" (direct), "iface" (interface method, resolved CHA
	// style at walk time), or "ref" (function value bound, considered
	// reachable).
	Kind string
	// Target is a function key "pkgpath::local" for call/ref edges, or a
	// method selector "Name|signature" for iface edges.
	Target string
	// Pos is the call or binding site.
	Pos token.Pos
}

// FuncFacts is the summary of one function (or function literal, keyed
// "parent$n").
type FuncFacts struct {
	// Atoms are the function's own relevant sites.
	Atoms []Atom
	// Edges are the function's outgoing edges, in source order.
	Edges []Edge
	// Hot marks a //hwdp:hotpath root for the hotalloc analyzer.
	Hot bool
	// Cold holds the //hwdp:coldpath reason; hotalloc stops descending
	// into cold functions (sharedstate does not: cold code shares state
	// just the same).
	Cold string
}

// PkgFacts is the summary of one package.
type PkgFacts struct {
	// Pkg is the import path.
	Pkg string
	// Funcs maps local function keys ("Name", "(Recv).Name",
	// "(Recv).Name$1") to their summaries.
	Funcs map[string]*FuncFacts
	// Methods is the class-hierarchy index: "Name|signature" to the local
	// keys of this package's concrete methods with that name and
	// signature.
	Methods map[string][]string
}

// Registry holds the summaries of every package in a load.
type Registry struct {
	pkgs  map[string]*PkgFacts
	paths []string // sorted keys of pkgs, for deterministic iteration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{pkgs: make(map[string]*PkgFacts)}
}

// Add merges one package summary (replacing any previous summary for the
// same path).
func (r *Registry) Add(p *PkgFacts) {
	if _, ok := r.pkgs[p.Pkg]; !ok {
		r.paths = append(r.paths, p.Pkg)
		sort.Strings(r.paths)
	}
	r.pkgs[p.Pkg] = p
}

// RegistryOf returns the registry SummarizeAll attached to the unit. A
// unit without one was not summarized: that is a driver bug, reported as
// an error rather than a silently narrower walk.
func RegistryOf(u *analysis.Unit) (*Registry, error) {
	reg, ok := u.Facts.(*Registry)
	if !ok {
		return nil, fmt.Errorf("%s: no callgraph registry attached (summarize the load with callgraph.SummarizeAll)", u.Pkg.Path())
	}
	return reg, nil
}

// Func resolves a global function key "pkgpath::local", or nil when the
// package or function is unknown (stdlib, a package outside the load).
func (r *Registry) Func(key string) *FuncFacts {
	pkg, local, ok := SplitKey(key)
	if !ok {
		return nil
	}
	p := r.pkgs[pkg]
	if p == nil {
		return nil
	}
	return p.Funcs[local]
}

// methodImpls returns the global keys of every concrete method in the
// registry matching an iface edge target "Name|signature", sorted.
func (r *Registry) methodImpls(sel string) []string {
	var out []string
	for _, path := range r.paths {
		for _, local := range r.pkgs[path].Methods[sel] {
			out = append(out, JoinKey(path, local))
		}
	}
	sort.Strings(out)
	return out
}

// JoinKey builds a global function key from a package path and local key.
func JoinKey(pkg, local string) string { return pkg + "::" + local }

// SplitKey splits a global function key into package path and local key.
func SplitKey(key string) (pkg, local string, ok bool) {
	i := strings.Index(key, "::")
	if i < 0 {
		return "", "", false
	}
	return key[:i], key[i+2:], true
}

// DisplayKey renders a function key for diagnostics, dropping the module
// prefix ("hwdp/internal/smu::(SMU).HandleMissArg" -> "smu.(SMU).HandleMissArg").
func DisplayKey(key string) string {
	pkg, local, ok := SplitKey(key)
	if !ok {
		return key
	}
	pkg = strings.TrimPrefix(pkg, "hwdp/internal/")
	pkg = strings.TrimPrefix(pkg, "hwdp/")
	if pkg == "" || pkg == "hwdp" {
		return local
	}
	return pkg + "." + local
}

// ShortPos renders a position as "file.go:line" (base filename), the form
// diagnostics quote for sites and calls in other packages.
func ShortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
