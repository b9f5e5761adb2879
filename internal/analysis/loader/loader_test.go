package loader

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestLoadGoListFallback drives the loader over a throwaway module,
// checking that `go list -deps -export -json` supplies export data and the
// module packages come back parsed, type-checked, and sorted.
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
