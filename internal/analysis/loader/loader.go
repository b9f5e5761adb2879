// Package loader type-checks this module's packages for the analyzer
// suite's one driver (suite.RunAll, run over the real tree by the
// TestLintClean lint gate). It shells out to `go list -deps -export
// -json`, which builds export data for every dependency; the named module
// packages are then parsed from source and type-checked against that
// export data, all into one shared token.FileSet — the split go vet itself
// uses, without requiring go/packages.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"

	"hwdp/internal/analysis"
)

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Module     *struct{ Path string }
	Incomplete bool
	Error      *struct{ Err string }
}

// Load type-checks the module packages matching patterns and returns one
// Unit per package, sorted by import path. dir is the directory to run
// `go list` from ("" for the current directory).
func Load(dir string, patterns ...string) ([]*analysis.Unit, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var units []*analysis.Unit
	for _, p := range targets {
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		info := analysis.NewInfo()
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		units = append(units, &analysis.Unit{Fset: fset, Files: files, Pkg: pkg, Info: info})
	}
	return units, nil
}

// parseFiles parses a package's source files, named relative to dir as go
// list reports them, with comments.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
