// Package analyzertest is a stdlib-only golden-test harness for the
// analyzers in internal/analysis, mirroring the x/tools analysistest
// contract: fixture packages live under testdata/src/<importpath>/ and
// carry `// want "regexp"` comments on the lines where diagnostics are
// expected. A fixture package importing "hwdp/internal/sim" resolves to
// the stub under testdata/src/hwdp/internal/sim, which reuses the real
// import path so the analyzers' package gates behave exactly as they do
// on the real tree. Standard-library imports are type-checked from
// source (no pre-built export data is assumed).
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hwdp/internal/analysis"
	"hwdp/internal/analysis/callgraph"
)

// Run loads testdata/src/<pkgpath>, applies the analyzers, and compares
// the resulting diagnostics against the fixture's `// want` expectations.
// Callgraph facts are threaded exactly as in a real run: the fixture's
// hwdp/... imports are summarized dependency-first into a shared registry
// before the fixture itself, so the interprocedural analyzers
// (sharedstate, hotalloc) see cross-package reachability inside testdata
// too.
func Run(t *testing.T, testdata, pkgpath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	unit := Load(t, testdata, pkgpath)
	diags, err := analysis.Run(unit, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pkgpath, err)
	}
	checkExpectations(t, unit, diags)
}

// Load parses and type-checks one fixture package without running any
// analyzer (facts threaded as in Run), for tests that assert on
// analysis.Run output directly (the suppression-machinery tests, whose
// diagnostics land on comment lines where a same-line `// want` cannot be
// written).
func Load(t *testing.T, testdata, pkgpath string) *analysis.Unit {
	t.Helper()
	ld := newLoader(filepath.Join(testdata, "src"))
	u, err := ld.load(pkgpath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgpath, err)
	}
	callgraph.SummarizeAll(ld.loaded)
	return u
}

// loader type-checks fixture packages, resolving hwdp/... imports inside
// the testdata tree and everything else from the standard library.
type loader struct {
	root     string // testdata/src
	fset     *token.FileSet
	units    map[string]*analysis.Unit
	loaded   []*analysis.Unit // units in load order
	fallback types.Importer
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:     root,
		fset:     fset,
		units:    make(map[string]*analysis.Unit),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
}

// Import satisfies types.Importer so fixture packages can import each
// other and the sim stub.
func (l *loader) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "hwdp/") {
		return l.fallback.Import(path)
	}
	u, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return u.Pkg, nil
}

// load parses and type-checks one fixture package (memoized).
func (l *loader) load(path string) (*analysis.Unit, error) {
	if u, ok := l.units[path]; ok {
		return u, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	u := &analysis.Unit{Fset: l.fset, Files: files, Pkg: pkg, Info: info}
	l.units[path] = u
	l.loaded = append(l.loaded, u)
	return u, nil
}

// expectation is one `// want` pattern anchored to a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseExpectations extracts the `// want "re" "re"...` comments from the
// fixture. Both double-quoted (Go unquoting) and backquoted patterns are
// accepted, matching the analysistest syntax.
func parseExpectations(t *testing.T, u *analysis.Unit) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	return out
}

// splitPatterns tokenizes the tail of a want comment into its quoted
// pattern strings.
func splitPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end == len(s) {
				t.Fatalf("%s: unterminated want pattern in %q", pos, s)
			}
			p, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: unquoting want pattern %q: %v", pos, s[:end+1], err)
			}
			pats = append(pats, p)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern in %q", pos, s)
			}
			pats = append(pats, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s: want patterns must be quoted, got %q", pos, s)
		}
	}
	return pats
}

// checkExpectations matches diagnostics against want comments one-to-one:
// every diagnostic must be wanted on its line, and every want must be met.
func checkExpectations(t *testing.T, u *analysis.Unit, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseExpectations(t, u)
	for _, d := range diags {
		pos := u.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", pos, d.Analyzer, d.Message)
		}
	}
	sort.SliceStable(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
