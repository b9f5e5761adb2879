// Package statuscase checks that switches over the simulator's status
// enums stay exhaustive as members are added (PR 1 added NVMe statuses;
// a retry/recovery switch that silently falls through a new status is
// exactly the bug this prevents). Two enum families are registered:
//
//   - the NVMe completion statuses: the Status*-prefixed constants of
//     hwdp/internal/nvme;
//   - the fault kinds: constants of type hwdp/internal/fault.Kind.
//
// A switch whose cases mention any member of a family must either cover
// every member of that family or carry a default arm. Marking the switch
// with a //hwdp:exhaustive comment (own line or the line above) demands
// full coverage even when a default is present — for dispatch points
// where "default" means "silently misroute the new status". Membership is
// discovered from the defining package's scope, so new constants join the
// check without touching the analyzer.
package statuscase

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hwdp/internal/analysis"
)

// ExhaustiveDirective demands full enum coverage for a switch even when
// it has a default arm.
const ExhaustiveDirective = "//hwdp:exhaustive"

// Analyzer is the statuscase check.
var Analyzer = &analysis.Analyzer{
	Name: "statuscase",
	Doc: "require switches over the NVMe status and fault-kind enums to " +
		"cover every member or carry a default (//hwdp:exhaustive forbids " +
		"hiding behind the default)",
	Run: run,
}

// family describes one registered enum: either every constant of a named
// type, or every prefix-named constant in a package.
type family struct {
	pkg    string // defining package import path
	typ    string // named type ("" for prefix families)
	prefix string // constant-name prefix ("" for typed families)
	what   string // diagnostic label
}

var families = []family{
	{pkg: "hwdp/internal/nvme", prefix: "Status", what: "NVMe status"},
	{pkg: "hwdp/internal/fault", typ: "Kind", what: "fault kind"},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		exhaustive := exhaustiveLines(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw, exhaustive)
			return true
		})
	}
	return nil
}

// exhaustiveLines maps the file's //hwdp:exhaustive comment lines.
func exhaustiveLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text == ExhaustiveDirective || strings.HasPrefix(c.Text, ExhaustiveDirective+" ") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt, exhaustive map[int]bool) {
	var fam *family
	var famPkg *types.Package
	covered := map[string]bool{}
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			obj := constObj(pass.TypesInfo, e)
			if obj == nil {
				continue
			}
			f, pkg := familyOf(obj)
			if f == nil {
				continue
			}
			if fam == nil {
				fam, famPkg = f, pkg
			}
			if f == fam {
				covered[obj.Name()] = true
			}
		}
	}
	if fam == nil || famPkg == nil {
		return
	}
	var missing []string
	for _, name := range familyMembers(fam, famPkg) {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	line := pass.Fset.Position(sw.Pos()).Line
	marked := exhaustive[line] || exhaustive[line-1]
	if hasDefault && !marked {
		return
	}
	if marked {
		pass.Reportf(sw.Pos(), "switch over %s is marked //hwdp:exhaustive but misses %s — handle every member explicitly",
			fam.what, strings.Join(missing, ", "))
		return
	}
	pass.Reportf(sw.Pos(), "switch over %s silently falls through for %s — add the missing cases or a default arm",
		fam.what, strings.Join(missing, ", "))
}

// constObj resolves a case expression to the constant it names, or nil.
func constObj(info *types.Info, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := info.Uses[id].(*types.Const)
	return c
}

// familyOf reports which registered family the constant belongs to (and
// its defining package), or nil.
func familyOf(c *types.Const) (*family, *types.Package) {
	pkg := c.Pkg()
	if pkg == nil {
		return nil, nil
	}
	path := pkg.Path()
	for i := range families {
		f := &families[i]
		if f.pkg != path {
			continue
		}
		if f.typ != "" {
			if _, name := analysis.NamedPathAndName(c.Type()); name == f.typ {
				return f, pkg
			}
			continue
		}
		if strings.HasPrefix(c.Name(), f.prefix) {
			return f, pkg
		}
	}
	return nil, nil
}

// familyMembers enumerates the family's constant names from the defining
// package's scope, sorted, so new members join the check automatically.
func familyMembers(f *family, pkg *types.Package) []string {
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if f.typ != "" {
			if _, tname := analysis.NamedPathAndName(c.Type()); tname != f.typ {
				continue
			}
		} else if !strings.HasPrefix(name, f.prefix) {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
