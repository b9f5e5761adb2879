package callgraph

import (
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// reg builds a registry from hand-written package summaries.
func reg(pkgs ...*PkgFacts) *Registry {
	r := NewRegistry()
	for _, p := range pkgs {
		r.Add(p)
	}
	return r
}

// fakeFiles hands out positions in empty 100-line files of one FileSet,
// standing in for the shared FileSet of a load.
type fakeFiles struct {
	fset  *token.FileSet
	files map[string]*token.File
}

func newFakeFiles() *fakeFiles {
	return &fakeFiles{fset: token.NewFileSet(), files: map[string]*token.File{}}
}

// at returns the position of the start of line in the named file.
func (ff *fakeFiles) at(name string, line int) token.Pos {
	f := ff.files[name]
	if f == nil {
		content := []byte(strings.Repeat("\n", 100))
		f = ff.fset.AddFile(name, -1, len(content))
		f.SetLinesForContent(content)
		ff.files[name] = f
	}
	return f.LineStart(line)
}

// TestReachableChain walks a three-package chain and checks both the
// finding and its reconstructed call path.
func TestReachableChain(t *testing.T) {
	pos := newFakeFiles()
	r := reg(
		&PkgFacts{Pkg: "a", Funcs: map[string]*FuncFacts{
			"Root": {Edges: []Edge{{Kind: "call", Target: "b::Mid", Pos: pos.at("a.go", 5)}}},
		}},
		&PkgFacts{Pkg: "b", Funcs: map[string]*FuncFacts{
			"Mid": {Edges: []Edge{{Kind: "call", Target: "c::Leaf", Pos: pos.at("b.go", 7)}}},
		}},
		&PkgFacts{Pkg: "c", Funcs: map[string]*FuncFacts{
			"Leaf": {Atoms: []Atom{{Analyzer: "hotalloc", Kind: "make", Msg: "make of slice", Pos: pos.at("c.go", 9)}}},
		}},
	)
	got := r.Reachable("a::Root", "hotalloc", true)
	if len(got) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(got), got)
	}
	f := got[0]
	if f.Func != "c::Leaf" || f.Atom.Kind != "make" {
		t.Errorf("finding = %s / %s, want c::Leaf / make", f.Func, f.Atom.Kind)
	}
	want := []Step{{Callee: "b::Mid", CallPos: pos.at("a.go", 5)}, {Callee: "c::Leaf", CallPos: pos.at("b.go", 7)}}
	if !reflect.DeepEqual(f.Chain, want) {
		t.Errorf("chain = %+v, want %+v", f.Chain, want)
	}
	if p := f.ReportPos(); p != pos.at("a.go", 5) {
		t.Errorf("ReportPos = %v, want the first call out of the root", pos.fset.Position(p))
	}
	if s := RenderChain(pos.fset, f.Chain); s != "b.Mid (a.go:5) -> c.Leaf (b.go:7)" {
		t.Errorf("RenderChain = %q", s)
	}
	if s := RenderChain(pos.fset, nil); s != "" {
		t.Errorf("RenderChain(nil) = %q, want empty", s)
	}
	// An atom of the other analyzer is invisible to this walk.
	if got := r.Reachable("a::Root", "sharedstate", false); len(got) != 0 {
		t.Errorf("sharedstate walk found %d hotalloc atoms", len(got))
	}
}

// TestReachableHonorsCold checks the asymmetry between the analyzers:
// hotalloc does not enter //hwdp:coldpath functions, sharedstate does
// (cold code shares state just the same).
func TestReachableHonorsCold(t *testing.T) {
	pos := newFakeFiles()
	r := reg(&PkgFacts{Pkg: "a", Funcs: map[string]*FuncFacts{
		"Root": {Edges: []Edge{{Kind: "call", Target: "a::fail", Pos: pos.at("a.go", 3)}}},
		"fail": {
			Cold: "failure path",
			Atoms: []Atom{
				{Analyzer: "hotalloc", Kind: "concat", Msg: "concat", Pos: pos.at("a.go", 8)},
				{Analyzer: "sharedstate", Kind: "pkgwrite", Msg: "write", Pos: pos.at("a.go", 9)},
			},
		},
	}})
	if got := r.Reachable("a::Root", "hotalloc", true); len(got) != 0 {
		t.Errorf("hotalloc walk entered a coldpath function: %+v", got)
	}
	if got := r.Reachable("a::Root", "sharedstate", false); len(got) != 1 {
		t.Errorf("sharedstate walk skipped a coldpath function: %+v", got)
	}
}

// TestReachableResolvesIface checks CHA resolution: an iface edge fans
// out to every concrete method with the same name and signature, across
// packages, and unknown call targets stay opaque without derailing the
// walk.
func TestReachableResolvesIface(t *testing.T) {
	pos := newFakeFiles()
	r := reg(
		&PkgFacts{Pkg: "a", Funcs: map[string]*FuncFacts{
			"Root": {Edges: []Edge{
				{Kind: "iface", Target: "Admit|func(int)", Pos: pos.at("a.go", 4)},
				{Kind: "call", Target: "stdlib::Unknown", Pos: pos.at("a.go", 5)},
			}},
		}},
		&PkgFacts{
			Pkg: "b",
			Funcs: map[string]*FuncFacts{
				"(Dev).Admit": {Atoms: []Atom{{Analyzer: "hotalloc", Kind: "new", Msg: "new", Pos: pos.at("b.go", 6)}}},
			},
			Methods: map[string][]string{"Admit|func(int)": {"(Dev).Admit"}},
		},
		&PkgFacts{
			Pkg: "c",
			Funcs: map[string]*FuncFacts{
				"(Model).Admit": {Atoms: []Atom{{Analyzer: "hotalloc", Kind: "append", Msg: "append", Pos: pos.at("c.go", 6)}}},
			},
			Methods: map[string][]string{"Admit|func(int)": {"(Model).Admit"}},
		},
	)
	got := r.Reachable("a::Root", "hotalloc", true)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want both CHA targets: %+v", len(got), got)
	}
	funcs := []string{got[0].Func, got[1].Func}
	if !(funcs[0] == "b::(Dev).Admit" && funcs[1] == "c::(Model).Admit") &&
		!(funcs[0] == "c::(Model).Admit" && funcs[1] == "b::(Dev).Admit") {
		t.Errorf("iface edge resolved to %v", funcs)
	}
}

func TestKeyHelpers(t *testing.T) {
	if k := JoinKey("hwdp/internal/smu", "(SMU).HandleMiss"); k != "hwdp/internal/smu::(SMU).HandleMiss" {
		t.Errorf("JoinKey = %q", k)
	}
	pkg, local, ok := SplitKey("hwdp/internal/smu::(SMU).HandleMiss")
	if !ok || pkg != "hwdp/internal/smu" || local != "(SMU).HandleMiss" {
		t.Errorf("SplitKey = %q, %q, %v", pkg, local, ok)
	}
	if _, _, ok := SplitKey("nokey"); ok {
		t.Error("SplitKey accepted a key without separator")
	}
	for key, want := range map[string]string{
		"hwdp/internal/smu::(SMU).HandleMiss": "smu.(SMU).HandleMiss",
		"hwdp/internal/ssd/modeled::collect":  "ssd/modeled.collect",
		"hwdp::Main":                          "Main",
		"plain":                               "plain",
	} {
		if got := DisplayKey(key); got != want {
			t.Errorf("DisplayKey(%q) = %q, want %q", key, got, want)
		}
	}
	r := reg(&PkgFacts{Pkg: "x"})
	if f := r.Func("x::nope"); f != nil {
		t.Error("Func resolved a nonexistent function")
	}
	if f := r.Func("malformed-key"); f != nil {
		t.Error("Func resolved a malformed key")
	}
}
