package loader

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeVetCfg marshals a VetConfig into a temp vet.cfg the way the go
// command would.
func writeVetCfg(t *testing.T, dir string, cfg *VetConfig) string {
	t.Helper()
	data, err := json.MarshalIndent(cfg, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadVetConfig checks the fields the driver depends on survive the
// JSON round trip, and that unreadable or malformed files error.
func TestReadVetConfig(t *testing.T) {
	dir := t.TempDir()
	in := &VetConfig{
		ImportPath:  "hwdp/internal/smu",
		Dir:         dir,
		GoFiles:     []string{filepath.Join(dir, "a.go")},
		ImportMap:   map[string]string{"hwdp/internal/sim": "hwdp/internal/sim"},
		PackageFile: map[string]string{"hwdp/internal/sim": "/tmp/sim.a"},
		PackageVetx: map[string]string{"hwdp/internal/sim": "/tmp/sim.vetx"},
		VetxOutput:  filepath.Join(dir, "out.vetx"),
		VetxOnly:    true,
		GoVersion:   "go1.22",

		SucceedOnTypecheckFailure: true,
	}
	path := writeVetCfg(t, dir, in)
	got, err := ReadVetConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ImportPath != in.ImportPath || !got.VetxOnly || !got.SucceedOnTypecheckFailure ||
		got.VetxOutput != in.VetxOutput || got.PackageVetx["hwdp/internal/sim"] != "/tmp/sim.vetx" {
		t.Errorf("ReadVetConfig = %+v, want fields of %+v", got, in)
	}

	if _, err := ReadVetConfig(filepath.Join(dir, "absent.cfg")); err == nil {
		t.Error("ReadVetConfig accepted a missing file")
	}
	bad := filepath.Join(dir, "bad.cfg")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadVetConfig(bad); err == nil {
		t.Error("ReadVetConfig accepted malformed JSON")
	}
}

// TestLoadUnitFromVetCfg type-checks a dependency-free package straight
// from a vet.cfg, the way `go vet -vettool` invokes the driver for leaf
// packages (no export data needed).
func TestLoadUnitFromVetCfg(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "leaf.go")
	code := "// Package leaf is a loader-test fixture.\npackage leaf\n\n// V is exported.\nvar V = add(1, 2)\n\nfunc add(a, b int) int { return a + b }\n"
	if err := os.WriteFile(src, []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := &VetConfig{
		ImportPath: "hwdp/internal/leaf",
		Dir:        dir,
		GoFiles:    []string{src},
	}
	u, err := cfg.LoadUnit()
	if err != nil {
		t.Fatal(err)
	}
	if u.Pkg.Path() != "hwdp/internal/leaf" {
		t.Errorf("loaded package path %q", u.Pkg.Path())
	}
	if u.Pkg.Scope().Lookup("V") == nil {
		t.Error("type-checked package lost its declarations")
	}
	if len(u.Files) != 1 || u.Info == nil || u.Fset == nil {
		t.Errorf("unit incomplete: %+v", u)
	}

	// A type error must surface as an error (the driver, not LoadUnit,
	// decides whether SucceedOnTypecheckFailure downgrades it).
	if err := os.WriteFile(src, []byte("package leaf\nvar V undefined\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.LoadUnit(); err == nil {
		t.Error("LoadUnit accepted a package that does not type-check")
	}

	// A missing source file is a parse-stage error.
	cfg.GoFiles = []string{filepath.Join(dir, "gone.go")}
	if _, err := cfg.LoadUnit(); err == nil {
		t.Error("LoadUnit accepted a vanished source file")
	}
}

// TestLoadUnitResolvesImportMap checks that import resolution consults
// ImportMap before PackageFile: vendored or test-variant import paths
// must rewrite to the canonical key the export-data map uses.
func TestLoadUnitResolvesImportMap(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "uses.go")
	code := "package uses\n\nimport \"hwdp/internal/ghost\"\n\nvar _ = ghost.X\n"
	if err := os.WriteFile(src, []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := &VetConfig{
		ImportPath: "hwdp/internal/uses",
		Dir:        dir,
		GoFiles:    []string{src},
		ImportMap:  map[string]string{"hwdp/internal/ghost": "hwdp/internal/canonical"},
		// No PackageFile entry for either path: the lookup must fail with
		// the canonical path in the message, proving the map was applied.
	}
	_, err := cfg.LoadUnit()
	if err == nil {
		t.Fatal("LoadUnit resolved an import with no export data")
	}
	if want := "hwdp/internal/canonical"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention the ImportMap-canonicalized path %q", err, want)
	}
}

// TestLoadGoListFallback drives the in-process loader (no vet.cfg) over a
// throwaway module, checking that `go list -deps -export -json` supplies
// export data and the module packages come back parsed, type-checked, and
// sorted.
func TestLoadGoListFallback(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":      "module example.com/tiny\n\ngo 1.22\n",
		"a/a.go":      "// Package a is a loader-test fixture.\npackage a\n\n// N is exported.\nconst N = 1\n",
		"b/b.go":      "// Package b imports a.\npackage b\n\nimport \"example.com/tiny/a\"\n\n// M doubles a.N.\nconst M = 2 * a.N\n",
		"b/b_test.go": "package b\n",
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	units, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("loaded %d units, want 2 (a, b)", len(units))
	}
	if units[0].Pkg.Path() != "example.com/tiny/a" || units[1].Pkg.Path() != "example.com/tiny/b" {
		t.Errorf("unit order = %q, %q, want a then b", units[0].Pkg.Path(), units[1].Pkg.Path())
	}
	if units[1].Pkg.Scope().Lookup("M") == nil {
		t.Error("package b lost its declarations")
	}

	// An unmatchable pattern is a go list error, not a silent empty load.
	if _, err := Load(dir, "./nonexistent"); err == nil {
		t.Error("Load accepted a pattern matching nothing")
	}
}
