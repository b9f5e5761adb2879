package callgraph

import (
	"go/token"
	"strings"
)

// Step is one hop of a call chain: the callee reached and the position of
// the call (or binding) that reached it, in the caller's package.
type Step struct {
	// Callee is the global key of the function entered.
	Callee string
	// CallPos is the site of the call in the caller.
	CallPos token.Pos
}

// Finding is one atom reached from a root by the transitive walk.
type Finding struct {
	// Root is the walk's starting function key.
	Root string
	// Func is the key of the function containing the atom.
	Func string
	// Atom is the reached site.
	Atom *Atom
	// Chain is the call path from Root to Func (empty when the atom is in
	// the root itself).
	Chain []Step
}

// ReportPos returns the position to anchor a diagnostic for the finding
// in the root's package: the atom's own position when it sits in the root
// function, otherwise the first call out of the root.
func (f *Finding) ReportPos() token.Pos {
	if len(f.Chain) == 0 {
		return f.Atom.Pos
	}
	return f.Chain[0].CallPos
}

// pred records how the walk first reached a function.
type pred struct {
	from string
	edge *Edge
}

// Reachable walks the merged call graph from root and returns every atom
// of the named analyzer in reach, each with its discovery chain. The walk
// is breadth-first with edges taken in summary (source) order, so results
// are deterministic. When honorCold is true (hotalloc), functions carrying
// a //hwdp:coldpath reason are not entered; sharedstate passes false — cold
// code shares state just the same.
//
// Unknown targets (standard library, packages outside the registry) are
// treated as opaque: the walk stops there, and any allocation or
// shared state behind them must have been recorded as an atom at the call
// site during summarization.
func (r *Registry) Reachable(root, analyzer string, honorCold bool) []Finding {
	preds := map[string]pred{root: {}}
	queue := []string{root}
	var out []Finding
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		ff := r.Func(key)
		if ff == nil {
			continue
		}
		for i := range ff.Atoms {
			a := &ff.Atoms[i]
			if a.Analyzer != analyzer {
				continue
			}
			f := Finding{Root: root, Func: key, Atom: a}
			f.Chain = chain(preds, root, key)
			out = append(out, f)
		}
		for i := range ff.Edges {
			e := &ff.Edges[i]
			targets := []string{e.Target}
			if e.Kind == "iface" {
				targets = r.methodImpls(e.Target)
			}
			for _, t := range targets {
				if _, seen := preds[t]; seen {
					continue
				}
				if honorCold {
					if tf := r.Func(t); tf != nil && tf.Cold != "" {
						continue
					}
				}
				preds[t] = pred{from: key, edge: e}
				queue = append(queue, t)
			}
		}
	}
	return out
}

// chain reconstructs the call path root -> ... -> key from the
// predecessor map.
func chain(preds map[string]pred, root, key string) []Step {
	var rev []Step
	for key != root {
		p := preds[key]
		rev = append(rev, Step{Callee: key, CallPos: p.edge.Pos})
		key = p.from
	}
	steps := make([]Step, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		steps = append(steps, rev[i])
	}
	return steps
}

// RenderChain formats a discovery chain for a diagnostic:
// "smu.(SMU).admit (smu.go:530) -> trace.(Miss).AddSpan (trace.go:162)".
// fset is the load's shared FileSet.
func RenderChain(fset *token.FileSet, chain []Step) string {
	var b strings.Builder
	for i, s := range chain {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(DisplayKey(s.Callee))
		b.WriteString(" (")
		b.WriteString(ShortPos(fset, s.CallPos))
		b.WriteString(")")
	}
	return b.String()
}
