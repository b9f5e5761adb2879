package callgraph

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// reg builds a registry from hand-written package summaries, the way a
// driver would assemble one from facts files.
func reg(pkgs ...*PkgFacts) *Registry {
	r := NewRegistry()
	for _, p := range pkgs {
		p.Version = Version
		r.Add(p)
	}
	return r
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	in := &PkgFacts{
		Version: Version,
		Pkg:     "hwdp/internal/smu",
		Funcs: map[string]*FuncFacts{
			"(SMU).HandleMiss": {
				Hot:   true,
				Edges: []Edge{{Kind: "call", Target: "hwdp/internal/smu::(SMU).admit", Pos: "smu.go:10"}},
			},
			"(SMU).admit": {
				Atoms: []Atom{{Analyzer: "hotalloc", Kind: "append", Msg: "append may grow", Pos: "smu.go:20"}},
				Cold:  "",
			},
		},
		Methods: map[string][]string{"HandleMiss|func(uint64)": {"(SMU).HandleMiss"}},
	}
	data, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("roundtrip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDecodeRejectsOtherVersions(t *testing.T) {
	p := &PkgFacts{Version: Version + 1, Pkg: "x"}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Error("Decode accepted a summary with a foreign format version")
	}
	if _, err := Decode([]byte("not json")); err == nil {
		t.Error("Decode accepted garbage")
	}
}

// TestReachableChain walks a three-package chain and checks both the
// finding and its reconstructed call path.
func TestReachableChain(t *testing.T) {
	r := reg(
		&PkgFacts{Pkg: "a", Funcs: map[string]*FuncFacts{
			"Root": {Edges: []Edge{{Kind: "call", Target: "b::Mid", Pos: "a.go:5"}}},
		}},
		&PkgFacts{Pkg: "b", Funcs: map[string]*FuncFacts{
			"Mid": {Edges: []Edge{{Kind: "call", Target: "c::Leaf", Pos: "b.go:7"}}},
		}},
		&PkgFacts{Pkg: "c", Funcs: map[string]*FuncFacts{
			"Leaf": {Atoms: []Atom{{Analyzer: "hotalloc", Kind: "make", Msg: "make of slice", Pos: "c.go:9"}}},
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
	want := []Step{{Callee: "b::Mid", CallPos: "a.go:5"}, {Callee: "c::Leaf", CallPos: "b.go:7"}}
	if !reflect.DeepEqual(f.Chain, want) {
		t.Errorf("chain = %+v, want %+v", f.Chain, want)
	}
	if s := RenderChain(f.Chain); s != "b.Mid (a.go:5) -> c.Leaf (b.go:7)" {
		t.Errorf("RenderChain = %q", s)
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
	r := reg(&PkgFacts{Pkg: "a", Funcs: map[string]*FuncFacts{
		"Root": {Edges: []Edge{{Kind: "call", Target: "a::fail", Pos: "a.go:3"}}},
		"fail": {
			Cold: "failure path",
			Atoms: []Atom{
				{Analyzer: "hotalloc", Kind: "concat", Msg: "concat", Pos: "a.go:8"},
				{Analyzer: "sharedstate", Kind: "pkgwrite", Msg: "write", Pos: "a.go:9"},
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
	r := reg(
		&PkgFacts{Pkg: "a", Funcs: map[string]*FuncFacts{
			"Root": {Edges: []Edge{
				{Kind: "iface", Target: "Admit|func(int)", Pos: "a.go:4"},
				{Kind: "call", Target: "stdlib::Unknown", Pos: "a.go:5"},
			}},
		}},
		&PkgFacts{
			Pkg: "b",
			Funcs: map[string]*FuncFacts{
				"(Dev).Admit": {Atoms: []Atom{{Analyzer: "hotalloc", Kind: "new", Msg: "new", Pos: "b.go:6"}}},
			},
			Methods: map[string][]string{"Admit|func(int)": {"(Dev).Admit"}},
		},
		&PkgFacts{
			Pkg: "c",
			Funcs: map[string]*FuncFacts{
				"(Model).Admit": {Atoms: []Atom{{Analyzer: "hotalloc", Kind: "append", Msg: "append", Pos: "c.go:6"}}},
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
}

// TestRegistrySkipsBadFactsFiles checks the tolerant facts-file loading:
// missing, empty, and foreign-version files only widen the blind spot.
func TestRegistrySkipsBadFactsFiles(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	r.LoadFile(dir + "/missing.vetx")
	empty := dir + "/empty.vetx"
	if err := writeFile(empty, nil); err != nil {
		t.Fatal(err)
	}
	r.LoadFile(empty)
	foreign := dir + "/foreign.vetx"
	data, _ := (&PkgFacts{Version: Version + 1, Pkg: "x"}).Encode()
	if err := writeFile(foreign, data); err != nil {
		t.Fatal(err)
	}
	r.LoadFile(foreign)
	if got := r.Pkg("x"); got != nil {
		t.Error("registry accepted a foreign-version summary")
	}
	good := dir + "/good.vetx"
	data, _ = (&PkgFacts{Version: Version, Pkg: "x"}).Encode()
	if err := writeFile(good, data); err != nil {
		t.Fatal(err)
	}
	r.LoadFile(good)
	if got := r.Pkg("x"); got == nil {
		t.Error("registry dropped a valid summary")
	}
	if f := r.Func("x::nope"); f != nil {
		t.Error("Func resolved a nonexistent function")
	}
	if f := r.Func("malformed-key"); f != nil {
		t.Error("Func resolved a malformed key")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestFindingReportPosFallback: decoded facts carry no token positions,
// so a chain finding whose first hop is unknown must stay invalid (the
// analyzer then anchors at the root's declaration).
func TestFindingReportPosFallback(t *testing.T) {
	f := Finding{Chain: []Step{{Callee: "b::Mid", CallPos: "a.go:5"}}}
	if f.ReportPos().IsValid() {
		t.Error("chain finding without in-process positions reported a valid pos")
	}
	if strings.Contains(RenderChain(nil), "->") {
		t.Error("empty chain rendered hops")
	}
}
