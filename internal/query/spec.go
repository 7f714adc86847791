package query

import (
	"fmt"
	"sort"
	"strings"

	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

// Specification-level structural queries: the paper's query language
// applies to both executions and specifications ("structural queries
// that allow users to select sub-workflows based on structural
// properties"). The same MATCH/WHERE/RETURN syntax binds variables to
// MODULES of a view instead of execution nodes; `x ~> y` means "x's
// output can contribute to y" in the view graph.

// SpecAnswer is the result of evaluating a query against a spec view.
type SpecAnswer struct {
	SpecID   string
	Bindings []Binding // var -> module id
	// Modules is the union of bound module ids when RETURN nodes.
	Modules []string
	// Sub, when RETURN provenance(x) / downstream(x), holds per binding
	// the sub-view module ids upstream (resp. downstream) of x — the
	// spec-level analogue of provenance.
	Sub [][]string
}

// EvaluateSpec runs the query against a specification view. Phrases
// match module keywords (or "id:M6" literals); constraints hold on the
// view graph. The optional policy hides module-private modules from
// matching, mirroring execution-level semantics.
func EvaluateSpec(q *Query, v *workflow.View, pol *privacy.Policy, level privacy.Level) (*SpecAnswer, error) {
	g := v.Graph()
	cl, err := graph.NewClosure(g)
	if err != nil {
		return nil, err
	}
	cands := make(map[string][]string, len(q.Vars))
	for name, phrase := range q.Vars {
		var ms []string
		for _, fm := range v.Modules {
			m := fm.Module
			if pol != nil && !pol.CanSeeModule(level, m.ID) {
				continue
			}
			if specPhraseMatches(m, phrase) {
				ms = append(ms, m.ID)
			}
		}
		if len(ms) == 0 {
			return &SpecAnswer{SpecID: v.Spec.ID}, nil
		}
		sort.Strings(ms)
		cands[name] = ms
	}

	check := func(b Binding, c Constraint) bool {
		x, okx := b[c.X]
		y, oky := b[c.Y]
		if !okx || !oky {
			return true
		}
		u, w := g.Lookup(x), g.Lookup(y)
		var holds bool
		if c.Direct {
			holds = g.HasEdge(u, w)
		} else {
			holds = u != w && cl.Reach(u, w)
		}
		if c.Negate {
			return !holds
		}
		return holds
	}

	ans := &SpecAnswer{SpecID: v.Spec.ID}
	var assign func(i int, b Binding)
	assign = func(i int, b Binding) {
		if i == len(q.VarOrder) {
			cp := make(Binding, len(b))
			for k, vv := range b {
				cp[k] = vv
			}
			ans.Bindings = append(ans.Bindings, cp)
			return
		}
		name := q.VarOrder[i]
		for _, mid := range cands[name] {
			b[name] = mid
			ok := true
			for _, c := range q.Constraints {
				if !check(b, c) {
					ok = false
					break
				}
			}
			if ok {
				assign(i+1, b)
			}
			delete(b, name)
		}
	}
	assign(0, make(Binding))

	switch q.Return {
	case ReturnNodes:
		set := make(map[string]bool)
		for _, b := range ans.Bindings {
			for _, mid := range b {
				set[mid] = true
			}
		}
		for mid := range set {
			ans.Modules = append(ans.Modules, mid)
		}
		sort.Strings(ans.Modules)
	case ReturnProvenance, ReturnDownstream:
		for _, b := range ans.Bindings {
			mid := b[q.ReturnVar]
			node := g.Lookup(mid)
			var ids []graph.NodeID
			if q.Return == ReturnProvenance {
				ids = g.ReachingTo(node)
			} else {
				ids = g.ReachableFrom(node)
			}
			names := make([]string, 0, len(ids))
			for _, n := range ids {
				names = append(names, g.Name(n))
			}
			sort.Strings(names)
			ans.Sub = append(ans.Sub, names)
		}
	}
	return ans, nil
}

// Render prints the spec answer tersely for CLI output.
func (a *SpecAnswer) Render() string {
	out := fmt.Sprintf("spec %s: %d binding(s)\n", a.SpecID, len(a.Bindings))
	for i, b := range a.Bindings {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		parts := make([]string, len(vars))
		for j, v := range vars {
			parts[j] = v + "=" + b[v]
		}
		out += fmt.Sprintf("  [%d] %s\n", i, strings.Join(parts, " "))
	}
	if len(a.Modules) > 0 {
		out += "  modules: " + strings.Join(a.Modules, ", ") + "\n"
	}
	for i, sub := range a.Sub {
		out += fmt.Sprintf("  sub[%d]: %s\n", i, strings.Join(sub, ", "))
	}
	return out
}

func specPhraseMatches(m *workflow.Module, phrase []string) bool {
	if len(phrase) == 1 && len(phrase[0]) > 3 && phrase[0][:3] == "id:" {
		return equalFold(m.ID, phrase[0][3:])
	}
	return phraseMatchesModule(m, phrase)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
