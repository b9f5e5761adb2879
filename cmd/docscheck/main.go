// Command docscheck enforces the repo's documentation invariants. It is
// the engine behind `make docs-check` and the CI docs step.
//
// It checks, across every non-test Go file in the module:
//
//   - every package has a package doc comment;
//   - every exported top-level symbol (type, func, method, const, var)
//     has a doc comment;
//
// and, across every tracked markdown file:
//
//   - every relative link target ([text](path) and [text](path#anchor))
//     resolves to an existing file or directory;
//   - inside fenced code blocks, every `go run ./PATH` names a directory
//     holding a package main, and every hwdpbench command line (`go run
//     ./cmd/hwdpbench ...` or `hwdpbench ...`) uses only flags
//     cmd/hwdpbench registers;
//
// and, for the experiment driver:
//
//   - every flag cmd/hwdpbench registers is documented in EXPERIMENTS.md
//     (as `-name`), and every row of the EXPERIMENTS.md flag table names
//     a registered flag, so the reference cannot drift from the binary's
//     actual surface in either direction;
//
// and, for the analyzer suite:
//
//   - every analyzer in suite.Analyzers has a `### <name>` section under
//     "## The analyzers" in docs/ANALYSIS.md, and every section there names
//     a registered analyzer (or hwdpignore, the suppression check).
//
// It exits non-zero and lists each violation as file:line when anything
// fails, so it slots directly into CI.
//
//	go run ./cmd/docscheck [-root dir]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"hwdp/internal/analysis/suite"
)

func main() {
	root := flag.String("root", ".", "module root to check")
	flag.Parse()

	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	if err := checkGoDocs(*root, addf); err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	if err := checkMarkdownLinks(*root, addf); err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	if err := checkFlagDocs(*root, addf); err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	if err := checkCommandDocs(*root, addf); err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	checkAnalyzerDocs(*root, addf)

	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// checkGoDocs parses every non-test .go file and reports packages without
// a package comment and exported declarations without doc comments.
func checkGoDocs(root string, addf func(string, ...any)) error {
	fset := token.NewFileSet()
	// Track whether any file of a package carries the package comment:
	// one doc.go per package is enough.
	pkgDoc := map[string]bool{}       // dir -> has package doc
	pkgFiles := map[string][]string{} // dir -> files (for reporting)

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		pkgFiles[dir] = append(pkgFiles[dir], path)
		if f.Doc != nil {
			pkgDoc[dir] = true
		}
		for _, decl := range f.Decls {
			checkDecl(fset, decl, addf)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for dir, files := range pkgFiles {
		if !pkgDoc[dir] {
			sort.Strings(files)
			addf("%s: package has no package doc comment", files[0])
		}
	}
	return nil
}

// checkDecl reports exported top-level symbols without doc comments.
func checkDecl(fset *token.FileSet, decl ast.Decl, addf func(string, ...any)) {
	pos := func(p token.Pos) string {
		position := fset.Position(p)
		return fmt.Sprintf("%s:%d", position.Filename, position.Line)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return
		}
		// Only methods on exported receivers count as API surface.
		if d.Recv != nil && !exportedRecv(d.Recv) {
			return
		}
		addf("%s: exported %s %s is undocumented", pos(d.Pos()), kindOf(d), d.Name.Name)
	case *ast.GenDecl:
		// A doc comment on the GenDecl covers the whole block
		// (`// Schemes.` above a const block is idiomatic).
		blockDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && !blockDoc && s.Doc == nil && s.Comment == nil {
					addf("%s: exported type %s is undocumented", pos(s.Pos()), s.Name.Name)
				}
			case *ast.ValueSpec:
				if blockDoc || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						addf("%s: exported %s %s is undocumented", pos(s.Pos()), tokenKind(d.Tok), n.Name)
					}
				}
			}
		}
	}
}

func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func tokenKind(t token.Token) string {
	if t == token.CONST {
		return "const"
	}
	return "var"
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return true
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

// flagCtors are the flag-package constructors whose first argument names a
// command-line flag.
var flagCtors = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"Float64": true, "String": true, "Duration": true,
	"BoolVar": true, "IntVar": true, "Int64Var": true, "UintVar": true,
	"Uint64Var": true, "Float64Var": true, "StringVar": true, "DurationVar": true,
}

// checkFlagDocs parses cmd/hwdpbench's flag registrations and checks them
// against EXPERIMENTS.md both ways: every flag must appear as `-name`
// somewhere in the document, and every first-column `-name` of the table
// under "## Driver flags" must be a registered flag.
func checkFlagDocs(root string, addf func(string, ...any)) error {
	cmdDir := filepath.Join(root, "cmd", "hwdpbench")
	if _, err := os.Stat(cmdDir); err != nil {
		return nil // repo layout without the driver: nothing to enforce
	}
	docPath := filepath.Join(root, "EXPERIMENTS.md")
	doc, err := os.ReadFile(docPath)
	if err != nil {
		addf("%s: EXPERIMENTS.md missing but cmd/hwdpbench exists", docPath)
		return nil
	}
	registered, err := registeredFlags(cmdDir)
	if err != nil {
		return err
	}
	for name, p := range registered {
		if !strings.Contains(string(doc), "-"+name) {
			addf("%s:%d: flag -%s is not documented in EXPERIMENTS.md", p.Filename, p.Line, name)
		}
	}
	inSection := false
	for i, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.HasPrefix(line, "## Driver flags")
			continue
		}
		if m := flagRow.FindStringSubmatch(line); inSection && m != nil {
			if _, ok := registered[m[1]]; !ok {
				addf("%s:%d: flag table row -%s names no flag cmd/hwdpbench registers", docPath, i+1, m[1])
			}
		}
	}
	return nil
}

// flagRow matches a flag-table row and captures the first column's flag
// name: "| `-seed N` | 1 | ..." captures "seed".
var flagRow = regexp.MustCompile("^\\|\\s*`-([A-Za-z0-9][A-Za-z0-9_-]*)")

// registeredFlags returns the name and position of every flag the non-test
// Go files in cmdDir register through the flag package.
func registeredFlags(cmdDir string) (map[string]token.Position, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(cmdDir)
	if err != nil {
		return nil, err
	}
	flags := map[string]token.Position{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(cmdDir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagCtors[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "flag" {
				return true
			}
			// VarName forms take the name as the second argument.
			arg := call.Args[0]
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				if len(call.Args) < 2 {
					return true
				}
				arg = call.Args[1]
			}
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				flags[strings.Trim(lit.Value, `"`)] = fset.Position(lit.Pos())
			}
			return true
		})
	}
	return flags, nil
}

// checkAnalyzerDocs requires one "### <name>" section under "## The
// analyzers" in docs/ANALYSIS.md per registered analyzer, and no section
// there for an analyzer the suite does not register.
func checkAnalyzerDocs(root string, addf func(string, ...any)) {
	docPath := filepath.Join(root, "docs", "ANALYSIS.md")
	doc, err := os.ReadFile(docPath)
	if err != nil {
		addf("%s: missing; it documents the analyzer suite", docPath)
		return
	}
	known := map[string]bool{"hwdpignore": true}
	for _, a := range suite.Analyzers {
		known[a.Name] = true
	}
	documented := map[string]bool{}
	inSection := false
	for i, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			inSection = strings.TrimSpace(line) == "## The analyzers"
		case inSection && strings.HasPrefix(line, "### "):
			name := strings.Fields(line)[1]
			documented[name] = true
			if !known[name] {
				addf("%s:%d: section %q names no registered analyzer", docPath, i+1, name)
			}
		}
	}
	for _, a := range suite.Analyzers {
		if !documented[a.Name] {
			addf("%s: analyzer %s has no \"### %s\" section under \"## The analyzers\"", docPath, a.Name, a.Name)
		}
	}
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// walkMarkdown calls fn with the lines of every markdown file under root.
func walkMarkdown(root string, fn func(path string, lines []string)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, strings.Split(string(data), "\n"))
		return nil
	})
}

// checkMarkdownLinks verifies every relative markdown link target exists.
func checkMarkdownLinks(root string, addf func(string, ...any)) error {
	return walkMarkdown(root, func(path string, lines []string) {
		for i, line := range lines {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
					strings.HasPrefix(target, "#") {
					continue
				}
				target = strings.SplitN(target, "#", 2)[0]
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					addf("%s:%d: broken link %q", path, i+1, m[1])
				}
			}
		}
	})
}

// checkCommandDocs checks the commands in the fenced code blocks of every
// markdown file, the lines a reader copies into a shell: a `go run ./PATH`
// must name a directory (relative to root) holding a package main, and a
// hwdpbench command line may use only flags cmd/hwdpbench registers.
// Prose and inline code are left alone, since history may name commands
// that are gone.
func checkCommandDocs(root string, addf func(string, ...any)) error {
	registered, err := registeredFlags(filepath.Join(root, "cmd", "hwdpbench"))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return walkMarkdown(root, func(path string, lines []string) {
		fenced := false
		for i, line := range lines {
			if t := strings.TrimSpace(line); strings.HasPrefix(t, "```") || strings.HasPrefix(t, "~~~") {
				fenced = !fenced
				continue
			}
			if !fenced {
				continue
			}
			cmd, _, _ := strings.Cut(line, "#")
			args := strings.Fields(cmd)
			if j := strings.Index(cmd, "go run "); j >= 0 {
				args = strings.Fields(cmd[j+len("go run "):])
				for len(args) > 0 && strings.HasPrefix(args[0], "-") {
					args = args[1:] // go run's own flags, as in -race
				}
				if len(args) == 0 || !strings.HasPrefix(args[0], "./") {
					continue
				}
				if !isMainPackage(filepath.Join(root, args[0])) {
					addf("%s:%d: `go run %s` names no package main", path, i+1, args[0])
				}
				args[0] = filepath.Base(args[0])
			}
			if registered == nil || len(args) == 0 || args[0] != "hwdpbench" {
				continue
			}
			for _, a := range args[1:] {
				if a == "|" || a == "&&" || a == "||" || a == ";" || strings.HasPrefix(a, ">") {
					break
				}
				name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
				if _, ok := registered[name]; strings.HasPrefix(a, "-") && !ok {
					addf("%s:%d: hwdpbench flag %s is not registered by cmd/hwdpbench", path, i+1, a)
				}
			}
		}
	})
}

// isMainPackage reports whether dir holds a non-test Go file of package
// main.
func isMainPackage(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go")) // only a malformed pattern errs, and then nothing matches
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly)
		if err == nil && f.Name.Name == "main" && !strings.HasSuffix(file, "_test.go") {
			return true
		}
	}
	return false
}
