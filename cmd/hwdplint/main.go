// Command hwdplint runs the repo's analyzer suite (simdeterminism,
// sharedstate, poolpair, simtime, hotalloc, statuscase — see
// docs/ANALYSIS.md). sharedstate keeps model code free of shared mutable
// state: `hwdpbench -j N` runs independent simulated machines concurrently
// in one process (internal/sweep), so a package variable, lock, channel or
// goroutine reached from model code would couple one unit's output to the
// units running beside it.
//
// It speaks only the `go vet -vettool` protocol:
//
//	go build -o bin/hwdplint ./cmd/hwdplint
//	go vet -vettool=$(pwd)/bin/hwdplint ./...
//
// (that is what `make lint` runs). The go command runs the tool once per
// package in dependency order; hwdplint writes each package's callgraph
// summary to the facts file the go command names (vet.cfg VetxOutput) and
// reads its dependencies' summaries back (PackageVetx), giving the
// interprocedural analyzers (sharedstate, hotalloc) cross-package reach
// with full incremental caching. The in-process run over the same suite is
// the repo-level TestLintClean.
//
// Exit status is 2 when any diagnostic is reported, matching go vet.
package main

import (
	"crypto/sha256"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hwdp/internal/analysis"
	"hwdp/internal/analysis/callgraph"
	"hwdp/internal/analysis/loader"
	"hwdp/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			// The go command fingerprints vet tools for its action cache;
			// the fingerprint keys the cached facts files, so it must
			// change whenever the tool's behavior does. Hash the binary
			// itself: a constant string here would keep serving stale
			// facts across tool rebuilds.
			fmt.Printf("hwdplint version %s\n", selfHash())
			return 0
		case "-flags", "--flags":
			// The go command asks which flags the tool accepts; hwdplint
			// has none beyond the protocol ones.
			fmt.Println("[]")
			return 0
		case "-h", "-help", "--help":
			usage()
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVetCfg(args[0])
	}
	usage()
	return 2
}

// selfHash returns a content hash of the running binary, in the
// "name version <id>" shape the go command's toolID parser accepts.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "v0-unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "v0-unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "v0-unknown"
	}
	return fmt.Sprintf("v0-%x", h.Sum(nil)[:12])
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(pwd)/bin/hwdplint <packages>\n\nanalyzers:\n")
	for _, a := range suite.Analyzers {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress with: //hwdp:ignore <analyzer> <reason>   (reason required)\n")
}

// runVetCfg analyzes one package unit as directed by a vet.cfg file,
// importing dependency facts and exporting this package's summary.
func runVetCfg(cfgPath string) int {
	cfg, err := loader.ReadVetConfig(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hwdplint: %v\n", err)
		return 1
	}
	// Packages outside this module carry no hwdp facts: write an empty
	// summary (the walk treats them as opaque) without parsing them.
	if !strings.HasPrefix(analysis.NormalizePkgPath(cfg.ImportPath), "hwdp") {
		writeFacts(cfg, &callgraph.PkgFacts{Version: callgraph.Version, Pkg: analysis.NormalizePkgPath(cfg.ImportPath)})
		return 0
	}
	u, err := cfg.LoadUnit()
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "hwdplint: %v\n", err)
		return 1
	}
	reg := callgraph.NewRegistry()
	for _, factsFile := range cfg.PackageVetx {
		reg.LoadFile(factsFile)
	}
	pf := callgraph.Summarize(u, reg)
	writeFacts(cfg, pf)
	if cfg.VetxOnly {
		return 0 // dependency run: facts only, no diagnostics
	}
	diags, err := analysis.Run(u, suite.Analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hwdplint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	return report(u.Fset, diags)
}

// writeFacts serializes a package summary to the vet.cfg's VetxOutput (a
// no-op when the go command did not ask for facts).
func writeFacts(cfg *loader.VetConfig, pf *callgraph.PkgFacts) {
	if cfg.VetxOutput == "" {
		return
	}
	data, err := pf.Encode()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hwdplint: encoding facts for %s: %v\n", cfg.ImportPath, err)
		return
	}
	if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "hwdplint: writing facts for %s: %v\n", cfg.ImportPath, err)
	}
}

// report prints diagnostics (paths relative to the working directory where
// possible) and returns the exit status vet expects: 2 when anything was
// found, 0 otherwise.
func report(fset *token.FileSet, diags []analysis.Diagnostic) int {
	if len(diags) == 0 {
		return 0
	}
	wd, _ := os.Getwd()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		name := pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", name, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	return 2
}
