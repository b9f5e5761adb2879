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
