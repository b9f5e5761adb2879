// Package analysis is the repo's static-analysis substrate: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API plus the
// driver glue shared by the analysistest-style golden runner and the
// tier-1 lint regression test (TestLintClean, the one driver of the suite
// over the real tree).
//
// The toolchain image this repository builds in has no module network
// access, so the framework is implemented on the standard library alone
// (go/ast, go/types, go/token). The Analyzer/Pass/Diagnostic surface is
// kept deliberately API-compatible with x/tools so the analyzers port
// verbatim if the dependency ever becomes available.
//
// Every analyzer supports suppression via a
//
//	//hwdp:ignore <analyzer> <reason>
//
// comment on the flagged line or the line directly above it. The reason is
// mandatory: a reason-less suppression is itself reported (as analyzer
// "hwdpignore") and does not suppress anything, and a well-formed
// suppression that no longer covers any finding is reported as stale so
// waivers cannot outlive their bugs. See docs/ANALYSIS.md.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name (used in diagnostics and in
// //hwdp:ignore comments), a doc string, and the Run function applied to
// each package unit.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions; it
	// must be a single lowercase word.
	Name string
	// Doc is the analyzer's one-paragraph description (cmd/docscheck
	// checks that docs/ANALYSIS.md documents every analyzer).
	Doc string
	// Run executes the check over one package and reports findings
	// through the Pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the package's parsed sources (including _test.go files
	// when the driver loads a test variant; diagnostics in test files are
	// dropped by the driver).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression facts.
	TypesInfo *types.Info
	// Unit is the package unit under analysis; interprocedural analyzers
	// reach the driver-attached fact store through Unit.Facts.
	Unit *Unit

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostic is one finding: a position, a message, and the analyzer that
// produced it.
type Diagnostic struct {
	// Pos is the finding's source position.
	Pos token.Pos
	// Message describes the violation and the suggested fix.
	Message string
	// Analyzer is the producing analyzer's name (or "hwdpignore" for
	// malformed suppression comments).
	Analyzer string
}

// Unit is one loaded, type-checked package ready for analysis.
type Unit struct {
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed sources.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds type-checker facts (Types, Defs, Uses, Selections must
	// be populated).
	Info *types.Info
	// Facts is the driver-attached cross-package fact store, a
	// *callgraph.Registry (callgraph.SummarizeAll attaches it). It is
	// typed as any to keep the framework free of a dependency on the fact
	// format; the interprocedural analyzers assert the concrete type and
	// fail when it is absent.
	Facts any

	sups     []*suppression
	supsDone bool
}

// NewInfo returns a types.Info with every map the analyzers need
// populated; loaders share it so no driver forgets a field.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// IgnoreDirective is the comment prefix that suppresses a diagnostic.
const IgnoreDirective = "//hwdp:ignore"

// ignoreRe captures "analyzer" and "reason" from a suppression comment.
var ignoreRe = regexp.MustCompile(`^//hwdp:ignore\s+([A-Za-z0-9_-]+)[ \t]*(.*)$`)

// suppression is one parsed //hwdp:ignore comment. used records whether
// the suppression actually covered a finding — either a diagnostic during
// Run or an interprocedural atom dropped at fact-collection time — so Run
// can report suppressions that have outlived their bug as stale.
type suppression struct {
	analyzer string
	reason   string
	file     string
	line     int
	pos      token.Pos
	used     bool
}

// suppressions parses every //hwdp:ignore comment in the unit (cached, so
// use-marking survives across the fact-collection and analyzer phases).
func (u *Unit) suppressions() []*suppression {
	if u.supsDone {
		return u.sups
	}
	u.supsDone = true
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnoreDirective) {
					continue
				}
				m := ignoreRe.FindStringSubmatch(c.Text)
				p := u.Fset.Position(c.Pos())
				if m == nil {
					u.sups = append(u.sups, &suppression{analyzer: "", file: p.Filename, line: p.Line, pos: c.Pos()})
					continue
				}
				u.sups = append(u.sups, &suppression{
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
					file:     p.Filename,
					line:     p.Line,
					pos:      c.Pos(),
				})
			}
		}
	}
	return u.sups
}

// Suppresses reports whether a valid //hwdp:ignore for the named analyzer
// covers pos (its own line or the line directly below), marking the
// suppression as used. Fact collectors call it to drop waived sites before
// they enter the cross-package fact store; Run calls it for every
// diagnostic. A suppression that is never marked used by either phase is
// reported as stale.
func (u *Unit) Suppresses(analyzer string, pos token.Pos) bool {
	p := u.Fset.Position(pos)
	hit := false
	for _, s := range u.suppressions() {
		if s.reason == "" || s.analyzer == "" {
			continue
		}
		if s.analyzer != analyzer && s.analyzer != "all" {
			continue
		}
		if s.file == p.Filename && (s.line == p.Line || s.line == p.Line-1) {
			s.used = true
			hit = true
		}
	}
	return hit
}

// Run applies the analyzers to the unit, resolves suppressions, reports
// malformed and stale suppressions, drops diagnostics in _test.go files,
// and returns the surviving findings sorted by position. A non-nil error
// means an analyzer itself failed (not that it found violations).
func Run(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			Unit:      u,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sups := u.suppressions()

	// Validate suppressions: a reason is mandatory, and the analyzer name
	// must exist (catching typos that would otherwise silently suppress
	// nothing).
	for _, s := range sups {
		switch {
		case s.analyzer == "":
			diags = append(diags, Diagnostic{Pos: s.pos, Analyzer: "hwdpignore",
				Message: "malformed suppression: want \"//hwdp:ignore <analyzer> <reason>\""})
		case s.reason == "":
			diags = append(diags, Diagnostic{Pos: s.pos, Analyzer: "hwdpignore",
				Message: fmt.Sprintf("suppression of %q needs a non-empty reason: \"//hwdp:ignore %s <reason>\"", s.analyzer, s.analyzer)})
		case !known[s.analyzer] && s.analyzer != "all":
			diags = append(diags, Diagnostic{Pos: s.pos, Analyzer: "hwdpignore",
				Message: fmt.Sprintf("suppression names unknown analyzer %q", s.analyzer)})
		}
	}

	// Apply valid suppressions: a comment covers its own line and the
	// line below (so it can trail the offending statement or sit above
	// it). Suppresses marks the covering comment used.
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "hwdpignore" && u.Suppresses(d.Analyzer, d.Pos) {
			continue
		}
		p := u.Fset.Position(d.Pos)
		if strings.HasSuffix(p.Filename, "_test.go") {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept

	// Stale-suppression check: a well-formed //hwdp:ignore that covered no
	// finding in this run — neither a diagnostic above nor a waived site
	// at fact-collection time — has outlived its bug and must be deleted,
	// so waivers cannot silently accumulate. "all" waivers are exempt
	// (they are deliberate fixture-wide blankets), as are suppressions
	// naming analyzers not part of this run and those in _test.go files
	// (whose diagnostics are always dropped).
	for _, s := range sups {
		if s.used || s.analyzer == "" || s.reason == "" || s.analyzer == "all" {
			continue
		}
		if !known[s.analyzer] || strings.HasSuffix(s.file, "_test.go") {
			continue
		}
		diags = append(diags, Diagnostic{Pos: s.pos, Analyzer: "hwdpignore",
			Message: fmt.Sprintf("stale suppression: no %s finding on this line or the line below anymore — delete the //hwdp:ignore", s.analyzer)})
	}

	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := u.Fset.Position(diags[i].Pos), u.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// HotPathPackages matches the import paths of the packages holding the
// simulator's deterministic, allocation-free hot path. simdeterminism and
// hotalloc's Post rule gate on it, and sharedstate roots its walk at every
// function these packages declare.
var HotPathPackages = regexp.MustCompile(`^hwdp/internal/(sim|smu|mmu|nvme|ssd|kernel|cpu|mem)(/|$)`)

// SimPackagePath is the import path of the discrete-event substrate; the
// analyzers recognize sim.Time and sim.Engine by it. Test fixtures under
// internal/analysis/testdata declare a stub package with the same path so
// analyzer behavior is identical in and out of tests.
const SimPackagePath = "hwdp/internal/sim"

// IsHotPathPkg reports whether the package path is part of the simulator
// hot path.
func IsHotPathPkg(path string) bool {
	return HotPathPackages.MatchString(path)
}
