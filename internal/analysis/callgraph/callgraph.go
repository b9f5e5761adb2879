// Package callgraph gives the hwdplint suite an interprocedural spine: a
// per-package summary of each function's outgoing calls and
// interprocedurally-relevant sites ("atoms"), a class-hierarchy method
// index for resolving interface calls, and a registry that merges the
// summaries of a package's dependency closure so analyzers can walk the
// call graph across package boundaries.
//
// Summaries are plain data (JSON), serialized per package. Under the
// `go vet -vettool` protocol cmd/hwdplint writes each package's summary to
// the vet facts file the go command provides (vet.cfg VetxOutput) and
// reads its dependencies' summaries back (vet.cfg PackageVetx), so facts
// flow between separate tool invocations exactly like x/tools analyzer
// facts. In-process drivers (the TestLintClean gate and the analyzertest
// fixture harness) summarize the whole load in dependency order with
// SummarizeAll.
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
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"
)

// Version tags the serialized fact format; a registry silently drops
// summaries written by a different format version.
const Version = 2

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
	// Pos is the site position as "file.go:line" (base filename).
	Pos string

	pos token.Pos // valid only in the summarizing process
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
	// Pos is the call or binding site as "file.go:line".
	Pos string

	pos token.Pos // valid only in the summarizing process
}

// FuncFacts is the summary of one function (or function literal, keyed
// "parent$n").
type FuncFacts struct {
	// Atoms are the function's own relevant sites.
	Atoms []Atom `json:",omitempty"`
	// Edges are the function's outgoing edges, in source order.
	Edges []Edge `json:",omitempty"`
	// Hot marks a //hwdp:hotpath root for the hotalloc analyzer.
	Hot bool `json:",omitempty"`
	// Cold holds the //hwdp:coldpath reason; hotalloc stops descending
	// into cold functions (sharedstate does not: cold code shares state
	// just the same).
	Cold string `json:",omitempty"`
}

// PkgFacts is the serialized summary of one package.
type PkgFacts struct {
	// Version is the fact format version.
	Version int
	// Pkg is the normalized import path.
	Pkg string
	// Funcs maps local function keys ("Name", "(Recv).Name",
	// "(Recv).Name$1") to their summaries.
	Funcs map[string]*FuncFacts `json:",omitempty"`
	// Methods is the class-hierarchy index: "Name|signature" to the local
	// keys of this package's concrete methods with that name and
	// signature.
	Methods map[string][]string `json:",omitempty"`
}

// Encode serializes the summary for a vet facts file.
func (p *PkgFacts) Encode() ([]byte, error) {
	return json.Marshal(p)
}

// Decode parses a serialized summary, rejecting other format versions.
func Decode(data []byte) (*PkgFacts, error) {
	var p PkgFacts
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	if p.Version != Version {
		return nil, fmt.Errorf("fact version %d, want %d", p.Version, Version)
	}
	return &p, nil
}

// Registry merges the summaries of a package and its dependency closure.
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

// LoadFile reads a serialized summary from a vet facts file. Unreadable,
// empty, or version-mismatched files are skipped without error: the go
// command may hand the tool facts files written by other configurations,
// and a missing summary only widens the analysis' blind spot, which the
// walk already treats as opaque.
func (r *Registry) LoadFile(path string) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	p, err := Decode(data)
	if err != nil {
		return
	}
	r.Add(p)
}

// Pkg returns the summary for a normalized import path, or nil.
func (r *Registry) Pkg(path string) *PkgFacts {
	return r.pkgs[path]
}

// Func resolves a global function key "pkgpath::local", or nil when the
// package or function is unknown (stdlib, un-summarized dependency).
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
