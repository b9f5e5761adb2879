package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hwdp/internal/analysis/suite"
)

// analyzerProblems runs checkAnalyzerDocs over a root whose
// docs/ANALYSIS.md holds doc, returning the problems it reports.
func analyzerProblems(t *testing.T, doc string) []string {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "docs", "ANALYSIS.md"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var problems []string
	checkAnalyzerDocs(root, func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	})
	return problems
}

// TestAnalyzerDocsDrift checks both directions of the analyzer-section
// check: a registered analyzer without a section and a section naming no
// registered analyzer are each reported, while hwdpignore and headings
// outside "## The analyzers" are not.
func TestAnalyzerDocsDrift(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Static analysis\n\n### overview\n\n## The analyzers\n\n")
	for _, a := range suite.Analyzers[1:] {
		fmt.Fprintf(&b, "### %s — text\n\nbody\n\n", a.Name)
	}
	b.WriteString("### hwdpignore — suppression hygiene\n\n### retired — gone\n\n## Directives\n\n### notes\n")
	problems := analyzerProblems(t, b.String())
	if len(problems) != 2 {
		t.Fatalf("got %d problems, want 2: %q", len(problems), problems)
	}
	missing, stale := false, false
	for _, p := range problems {
		missing = missing || strings.Contains(p, "analyzer "+suite.Analyzers[0].Name+" has no")
		stale = stale || strings.Contains(p, `section "retired" names no registered analyzer`)
	}
	if !missing || !stale {
		t.Errorf("problems = %q, want the missing %s section and the retired section", problems, suite.Analyzers[0].Name)
	}
}

// flagProblems runs checkFlagDocs over a root whose cmd/hwdpbench
// registers src's flags and whose EXPERIMENTS.md holds doc.
func flagProblems(t *testing.T, src, doc string) []string {
	t.Helper()
	root := t.TempDir()
	cmdDir := filepath.Join(root, "cmd", "hwdpbench")
	if err := os.MkdirAll(cmdDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cmdDir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "EXPERIMENTS.md"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var problems []string
	if err := checkFlagDocs(root, func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}); err != nil {
		t.Fatal(err)
	}
	return problems
}

// TestFlagDocsDrift checks both directions of the flag check: a
// registered flag missing from EXPERIMENTS.md and a flag-table row naming
// no registered flag are each reported, while a `-name` outside the
// "## Driver flags" table is not taken for a row.
func TestFlagDocsDrift(t *testing.T) {
	const src = `package main

import "flag"

func main() {
	flag.Bool("all", false, "")
	flag.Int("j", 1, "")
	var seed uint64
	flag.Uint64Var(&seed, "seed", 1, "")
	flag.Parse()
}
`
	const doc = "# EXPERIMENTS\n\n## Driver flags (`cmd/hwdpbench`)\n\n" +
		"| flag | default | meaning |\n|---|---|---|\n" +
		"| `-all` | off | everything |\n" +
		"| `-j N` | 1 | workers |\n" +
		"| `-stale` | off | retired |\n\n" +
		"## Figures\n\n| `-fig 13` | a table cell, not a flag row |\n"
	problems := flagProblems(t, src, doc)
	if len(problems) != 2 {
		t.Fatalf("got %d problems, want 2: %q", len(problems), problems)
	}
	undocumented, stale := false, false
	for _, p := range problems {
		undocumented = undocumented || strings.Contains(p, "flag -seed is not documented")
		stale = stale || strings.Contains(p, "row -stale names no flag")
	}
	if !undocumented || !stale {
		t.Errorf("problems = %q, want the undocumented -seed and the stale -stale row", problems)
	}
}

// TestCommandDocsDrift checks the documented-command check: inside fenced
// code blocks, a `go run` of a missing directory or of a directory without
// a package main, and a hwdpbench flag cmd/hwdpbench does not register, are
// each reported. Prose, inline code, comments, go run's own flags and the
// words after a shell operator are not checked.
func TestCommandDocsDrift(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cmd/hwdpbench/main.go", "package main\n\nimport \"flag\"\n\nfunc main() {\n\tflag.Bool(\"all\", false, \"\")\n\tflag.Int(\"j\", 1, \"\")\n}\n")
	write("cmd/hwdpbench/main_test.go", "package other\n")
	write("cmd/tool/main.go", "package main\n\nfunc main() {}\n")
	write("lib/lib.go", "package lib\n")
	write("docs/RUN.md", "# Running\n\nThe old `go run ./examples/gone` is history.\n\n"+
		"```bash\n"+
		"go run ./cmd/hwdpbench -all -j 2     # fine\n"+
		"go run -race ./cmd/tool\n"+
		"go run ./examples/gone\n"+
		"cd x && go run ./lib\n"+
		"go run .   # -bogus\n"+
		"```\n\n"+
		"hwdpbench -bogus outside a fence\n\n"+
		"   ~~~\n"+
		"   hwdpbench -all -j=4 -bogus | grep -x\n"+
		"   ~~~\n")
	var problems []string
	if err := checkCommandDocs(root, func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"RUN.md:8: `go run ./examples/gone` names no package main",
		"RUN.md:9: `go run ./lib` names no package main",
		"RUN.md:16: hwdpbench flag -bogus is not registered",
	}
	if len(problems) != len(want) {
		t.Fatalf("got %d problems, want %d: %q", len(problems), len(want), problems)
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], w)
		}
	}
}
