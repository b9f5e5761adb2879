package suite

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hwdp/internal/analysis"
	"hwdp/internal/analysis/hotalloc"
	"hwdp/internal/analysis/loader"
	"hwdp/internal/analysis/sharedstate"
)

// seededMMU holds the callee half of the two cross-package seeds: an
// append and a package-variable write, both reached from smu.
const seededMMU = `// Package mmu is a seeded end-to-end fixture.
package mmu

var grows int

// Grow appends.
func Grow(s []int) []int { return append(s, 1) }

// Bump writes a package variable.
func Bump() { grows++ }
`

// seededSMU seeds one violation per analyzer: a hot-path root reaching
// mmu.Grow's append (hotalloc) and mmu.Bump's package write (sharedstate),
// a host clock read (simdeterminism), a unit-less Post delay (simtime), a
// sim.Pool record leaked on an early return (poolpair) and a status switch
// missing a member without a default (statuscase).
const seededSMU = `// Package smu is a seeded end-to-end fixture.
package smu

import (
	"time"

	"hwdp/internal/mmu"
	"hwdp/internal/nvme"
	"hwdp/internal/sim"
)

type req struct{ next *req }

// SMU is the seeded unit.
type SMU struct {
	e    *sim.Engine
	reqs sim.Pool[req]
}

// HandleMiss is the hot-path root.
//
//hwdp:hotpath
func (s *SMU) HandleMiss(buf []int) []int {
	mmu.Bump()
	return mmu.Grow(buf)
}

// Stamp reads the host clock.
func (s *SMU) Stamp() int64 { return time.Now().UnixNano() }

// Later posts fn with a unit-less delay.
func (s *SMU) Later(fn func()) { s.e.Post(500, fn) }

// Try leaks its request when it fails.
func (s *SMU) Try(fail bool) bool {
	r := s.reqs.Get()
	if fail {
		return false
	}
	s.reqs.Put(r)
	return true
}

// Classify drops StatusUncorrectable.
func Classify(st uint16) int {
	switch st {
	case nvme.StatusSuccess:
		return 0
	case nvme.StatusCmdInterrupted:
		return 1
	}
	return 2
}
`

// writeSeededModule writes a throwaway module "hwdp" holding the sim and
// nvme fixture stubs and the two seeded packages, and returns its root.
func writeSeededModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                "module hwdp\n\ngo 1.22\n",
		"internal/mmu/mmu.go":   seededMMU,
		"internal/smu/smu.go":   seededSMU,
		"internal/sim/sim.go":   "",
		"internal/nvme/nvme.go": "",
	}
	for _, stub := range []string{"internal/sim/sim.go", "internal/nvme/nvme.go"} {
		data, err := os.ReadFile(filepath.Join("..", "testdata", "src", "hwdp", filepath.FromSlash(stub)))
		if err != nil {
			t.Fatal(err)
		}
		files[stub] = string(data)
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
	return dir
}

// TestRunAllSeededModule drives the one driver (loader.Load, then RunAll)
// over a seeded module: every analyzer must report, and the
// interprocedural findings must carry the cross-package call chain, which
// only the registry RunAll builds with callgraph.SummarizeAll can supply.
func TestRunAllSeededModule(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	units, err := loader.Load(writeSeededModule(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(units)
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string][]string{}
	for _, r := range results {
		for _, d := range r.Diags {
			msg := r.Unit.Pkg.Path() + ": " + d.Message
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], msg)
			t.Logf("[%s] %s", d.Analyzer, msg)
		}
	}
	for _, a := range Analyzers {
		if len(byAnalyzer[a.Name]) == 0 {
			t.Errorf("%s reported nothing on its seed", a.Name)
		}
	}
	prefixes := map[string]string{
		"hotalloc":    "hwdp/internal/smu: hot path smu.(SMU).HandleMiss reaches a heap allocation: mmu.Grow (smu.go:25): append may grow the backing array at mmu.go:7",
		"sharedstate": "hwdp/internal/smu: model code smu.(SMU).HandleMiss reaches shared state: mmu.Bump (smu.go:24): write to package-level variable grows",
		"poolpair":    `hwdp/internal/smu: pooled record "r" from s.reqs is not released on every path`,
	}
	for name, want := range prefixes {
		found := false
		for _, msg := range byAnalyzer[name] {
			found = found || strings.HasPrefix(msg, want)
		}
		if !found {
			t.Errorf("%s: no finding starts %q", name, want)
		}
	}

	// A unit that reaches the interprocedural analyzers without the
	// registry is a driver bug, not a reason to skip the walk.
	for _, u := range units {
		if u.Pkg.Path() != "hwdp/internal/smu" {
			continue
		}
		for _, a := range []*analysis.Analyzer{hotalloc.Analyzer, sharedstate.Analyzer} {
			bare := &analysis.Unit{Fset: u.Fset, Files: u.Files, Pkg: u.Pkg, Info: u.Info}
			if _, err := analysis.Run(bare, []*analysis.Analyzer{a}); err == nil || !strings.Contains(err.Error(), "no callgraph registry") {
				t.Errorf("%s on a unit without a registry: err = %v, want a missing-registry error", a.Name, err)
			}
		}
	}
}
