// Package query implements structural queries over workflow executions
// (Section 4 of the CIDR 2011 paper; in the spirit of BP-QL, Beeri et
// al., cited as [1]): selecting module executions by keyword, relating
// them by direct dataflow or by precedence ("Expand SNP Set was executed
// before Query OMIM"), and returning provenance for a selected variable.
//
// Queries are written in a small textual language:
//
//	MATCH a = "expand snp", b = "query omim"
//	WHERE a ~> b
//	RETURN provenance(b)
//
// Constraints: `x -> y` requires a direct dataflow edge between the
// matched executions; `x ~> y` requires a path (x executed before y and
// contributed to it). RETURN clauses: provenance(x), downstream(x),
// nodes, bindings.
//
// Privacy-controlled semantics (Section 4): EvaluateWithPrivacy first
// collapses the execution to the user's access view (coarser composite
// executions replace hidden detail — the "zoom-out"), masks data values
// per the data-privacy policy, and refuses to match modules protected by
// module privacy.
package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
)

// ReturnKind selects what a query returns per match.
type ReturnKind int

const (
	// ReturnBindings returns just the variable bindings.
	ReturnBindings ReturnKind = iota
	// ReturnNodes returns the matched nodes of all bindings.
	ReturnNodes
	// ReturnProvenance returns the provenance sub-execution of the
	// item(s) produced by the designated variable's node.
	ReturnProvenance
	// ReturnDownstream returns the data items downstream of the
	// designated variable's node outputs.
	ReturnDownstream
)

// Constraint relates two variables.
type Constraint struct {
	X, Y   string
	Direct bool // true: edge; false: path (precedence)
	Negate bool // true: the relation must NOT hold
}

// Query is a parsed structural query.
type Query struct {
	Vars        map[string][]string // var -> phrase tokens
	VarOrder    []string
	Constraints []Constraint
	Return      ReturnKind
	ReturnVar   string
}

// Binding assigns each variable an execution node id.
type Binding map[string]string

// Answer is the result of evaluating a query against one execution.
type Answer struct {
	ExecutionID string
	Bindings    []Binding
	// Provenance, per binding, when Return == ReturnProvenance.
	Provenance []*exec.Execution
	// Downstream item ids, per binding, when Return == ReturnDownstream.
	Downstream [][]string
	// Nodes is the union of bound nodes when Return == ReturnNodes.
	Nodes []string
	// ZoomedOut reports that privacy collapsed the execution before
	// evaluation.
	ZoomedOut bool
}

// Evaluator evaluates structural queries against executions of a spec.
type Evaluator struct {
	Spec *workflow.Spec
}

// NewEvaluator returns an evaluator for the spec.
func NewEvaluator(s *workflow.Spec) *Evaluator { return &Evaluator{Spec: s} }

// matchingNodes returns execution nodes whose module matches the
// phrase. A phrase of the form ["id:M6"] matches by module id instead
// of by keywords. Only nodes that represent a module execution
// participate (atomic and begin nodes, plus collapsed composite nodes
// in views).
func (ev *Evaluator) matchingNodes(e *exec.Execution, phrase []string, pol *privacy.Policy, level privacy.Level) []string {
	var idLiteral string
	if len(phrase) == 1 && strings.HasPrefix(phrase[0], "id:") {
		idLiteral = phrase[0][len("id:"):]
	}
	var out []string
	for _, n := range e.Nodes {
		switch n.Kind {
		case exec.AtomicNode, exec.BeginNode:
		default:
			continue
		}
		if n.Module == "" {
			continue
		}
		m, _ := ev.Spec.FindModule(n.Module)
		if m == nil {
			continue
		}
		if pol != nil && !pol.CanSeeModule(level, m.ID) {
			continue
		}
		if idLiteral != "" {
			if strings.EqualFold(m.ID, idLiteral) {
				out = append(out, n.ID)
			}
			continue
		}
		if phraseMatchesModule(m, phrase) {
			out = append(out, n.ID)
		}
	}
	sort.Strings(out)
	return out
}

func phraseMatchesModule(m *workflow.Module, phrase []string) bool {
	terms := search.ModuleTerms(m)
	for _, p := range phrase {
		if !slices.Contains(terms, p) {
			return false
		}
	}
	return true
}

// PreparedExec bundles an execution with its derived graph, transitive
// closure and id-addressed indexes, all built once. The execution MUST
// be immutable for the lifetime of the PreparedExec: internal/repo
// builds one per cached masked snapshot and shares it between
// arbitrarily many concurrent evaluations, which is sound only because
// neither the evaluator nor any other read path mutates the execution,
// the graph, the closure or the index maps.
//
// The indexes exist because exec.Execution deliberately lost its lazily
// memoized node index in PR 4 (memoizing inside a shared immutable
// value races); Execution.Node is a linear scan by contract. Building
// the maps here — at snapshot-fill time, exactly once — restores O(1)
// id resolution on every warm read without reintroducing hidden mutable
// state into the shared execution.
type PreparedExec struct {
	Exec *exec.Execution
	g    *graph.Graph
	cl   *graph.Closure

	// nodeByID resolves node ids without Execution.Node's linear scan.
	nodeByID map[string]*exec.Node
	// producedBy maps a node id to the sorted ids of the items it
	// produced (the per-binding scan of ReturnProvenance/ReturnDownstream
	// made O(1)).
	producedBy map[string][]string
	// flowsFrom maps a node id to the sorted distinct item ids on its
	// outgoing edges (the relay-node fallback of the same return paths).
	flowsFrom map[string][]string
}

// PrepareExec derives the graph, closure and id indexes of an
// (immutable) execution so repeated evaluations skip every rebuild.
func PrepareExec(e *exec.Execution) (*PreparedExec, error) {
	g := e.Graph()
	cl, err := graph.NewClosure(g)
	if err != nil {
		return nil, fmt.Errorf("query: execution graph: %w", err)
	}
	pe := &PreparedExec{
		Exec:       e,
		g:          g,
		cl:         cl,
		nodeByID:   make(map[string]*exec.Node, len(e.Nodes)),
		producedBy: make(map[string][]string),
		flowsFrom:  make(map[string][]string),
	}
	for _, n := range e.Nodes {
		pe.nodeByID[n.ID] = n
	}
	for id, it := range e.Items {
		pe.producedBy[it.Producer] = append(pe.producedBy[it.Producer], id)
	}
	for _, ids := range pe.producedBy {
		sort.Strings(ids)
	}
	seen := make(map[string]map[string]bool)
	for _, ed := range e.Edges {
		set := seen[ed.From]
		if set == nil {
			set = make(map[string]bool)
			seen[ed.From] = set
		}
		for _, it := range ed.Items {
			if !set[it] {
				set[it] = true
				pe.flowsFrom[ed.From] = append(pe.flowsFrom[ed.From], it)
			}
		}
	}
	for _, ids := range pe.flowsFrom {
		sort.Strings(ids)
	}
	return pe, nil
}

// Graph exposes the pre-derived graph for read-only reuse (e.g.
// exec.ProvenanceIn on the warm serving path).
func (pe *PreparedExec) Graph() *graph.Graph { return pe.g }

// Node resolves a node id through the prebuilt index — the O(1)
// replacement for Execution.Node on warm request paths.
func (pe *PreparedExec) Node(id string) *exec.Node { return pe.nodeByID[id] }

// returnItems resolves the items a return clause materializes for a
// bound node: the items it produced, or — for relay (begin/collapsed)
// nodes that produce nothing — the items on its outgoing edges.
func (pe *PreparedExec) returnItems(nodeID string) []string {
	if items := pe.producedBy[nodeID]; len(items) > 0 {
		return items
	}
	return pe.flowsFrom[nodeID]
}

// Evaluate runs the query against an execution with no privacy
// constraints.
func (ev *Evaluator) Evaluate(q *Query, e *exec.Execution) (*Answer, error) {
	pe, err := PrepareExec(e)
	if err != nil {
		return nil, err
	}
	return ev.evaluate(q, pe, nil, 0, false)
}

// EvaluateWithPrivacy runs the query under the paper's privacy-
// controlled semantics for a user at the given level: the execution is
// collapsed to the user's access view, values are masked per the data
// policy, and module-private executions cannot be matched.
func (ev *Evaluator) EvaluateWithPrivacy(q *Query, e *exec.Execution, pol *privacy.Policy, level privacy.Level) (*Answer, error) {
	h, err := workflow.NewHierarchy(ev.Spec)
	if err != nil {
		return nil, err
	}
	prefix := pol.AccessView(h, level)
	collapsed, err := exec.Collapse(e, ev.Spec, prefix)
	if err != nil {
		return nil, err
	}
	// Taint is analyzed on the full execution (protected items inside
	// collapsed composites are gone from the view but still taint their
	// descendants' trace strings), then applied to the view.
	masker := datapriv.NewMasker(pol, nil)
	masked, _ := masker.MaskView(e, collapsed, level)
	zoomed := len(prefix) < len(h.All())
	pe, err := PrepareExec(masked)
	if err != nil {
		return nil, err
	}
	return ev.evaluate(q, pe, pol, level, zoomed)
}

// EvaluatePrepared runs the query against an execution view that the
// caller has already collapsed to the user's access view and
// taint-masked for the user's level (internal/repo does this through
// its per-shard caches, so the collapse and taint analysis are paid
// once per execution, not per query). The view is treated as strictly
// read-only. zoomedOut flags whether the view is coarser than the full
// expansion.
func (ev *Evaluator) EvaluatePrepared(q *Query, masked *exec.Execution, pol *privacy.Policy, level privacy.Level, zoomedOut bool) (*Answer, error) {
	pe, err := PrepareExec(masked)
	if err != nil {
		return nil, err
	}
	return ev.evaluate(q, pe, pol, level, zoomedOut)
}

// EvaluateOn is EvaluatePrepared against a pre-derived PreparedExec:
// the fully amortized warm path — no graph or closure rebuild, no
// masking, only the match itself.
func (ev *Evaluator) EvaluateOn(q *Query, pe *PreparedExec, pol *privacy.Policy, level privacy.Level, zoomedOut bool) (*Answer, error) {
	return ev.evaluate(q, pe, pol, level, zoomedOut)
}

func (ev *Evaluator) evaluate(q *Query, pe *PreparedExec, pol *privacy.Policy, level privacy.Level, zoomed bool) (*Answer, error) {
	ans, err := ev.MatchOn(q, pe, pol, level, zoomed)
	if err != nil {
		return nil, err
	}
	if err := ev.MaterializeReturn(q, ans, pe); err != nil {
		return nil, err
	}
	return ans, nil
}

// MatchOn runs only the binding phase of a query — candidate selection
// and constraint backtracking — leaving the return clause (provenance /
// downstream sub-executions) unmaterialized. Callers that need to know
// *whether and where* a query matches, but will discard most answers
// (QueryAllPage windows by execution), use this to avoid building
// sub-executions that are thrown away; MaterializeReturn completes the
// surviving answers.
func (ev *Evaluator) MatchOn(q *Query, pe *PreparedExec, pol *privacy.Policy, level privacy.Level, zoomed bool) (*Answer, error) {
	if len(q.Vars) == 0 {
		return nil, fmt.Errorf("query: no variables")
	}
	e, g, cl := pe.Exec, pe.g, pe.cl
	// Candidates per variable.
	cands := make(map[string][]string, len(q.Vars))
	for v, phrase := range q.Vars {
		ns := ev.matchingNodes(e, phrase, pol, level)
		if len(ns) == 0 {
			return &Answer{ExecutionID: e.ID, ZoomedOut: zoomed}, nil
		}
		cands[v] = ns
	}
	check := func(b Binding, c Constraint) bool {
		x, okx := b[c.X]
		y, oky := b[c.Y]
		if !okx || !oky {
			return true // defer until both bound
		}
		u, v := g.Lookup(x), g.Lookup(y)
		var holds bool
		if c.Direct {
			holds = g.HasEdge(u, v)
		} else {
			holds = u != v && cl.Reach(u, v)
		}
		if c.Negate {
			return !holds
		}
		return holds
	}

	ans := &Answer{ExecutionID: e.ID, ZoomedOut: zoomed}
	// Backtracking over variables in declaration order.
	var assign func(i int, b Binding)
	assign = func(i int, b Binding) {
		if i == len(q.VarOrder) {
			cp := make(Binding, len(b))
			for k, v := range b {
				cp[k] = v
			}
			ans.Bindings = append(ans.Bindings, cp)
			return
		}
		v := q.VarOrder[i]
		for _, node := range cands[v] {
			b[v] = node
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
			delete(b, v)
		}
	}
	assign(0, make(Binding))
	return ans, nil
}

// MaterializeReturn completes an answer produced by MatchOn: it fills
// in the return clause (nodes, provenance sub-executions, downstream
// item sets) against the same prepared execution. Item resolution per
// binding goes through the PreparedExec indexes, so no step here is
// linear in execution size beyond the sub-graphs actually returned.
func (ev *Evaluator) MaterializeReturn(q *Query, ans *Answer, pe *PreparedExec) error {
	e, g := pe.Exec, pe.g
	switch q.Return {
	case ReturnNodes:
		set := make(map[string]bool)
		for _, b := range ans.Bindings {
			for _, n := range b {
				set[n] = true
			}
		}
		for n := range set {
			ans.Nodes = append(ans.Nodes, n)
		}
		sort.Strings(ans.Nodes)
	case ReturnProvenance:
		for _, b := range ans.Bindings {
			items := pe.returnItems(b[q.ReturnVar])
			if len(items) == 0 {
				continue
			}
			p, err := exec.ProvenanceIn(e, g, items[0])
			if err != nil {
				return err
			}
			ans.Provenance = append(ans.Provenance, p)
		}
	case ReturnDownstream:
		for _, b := range ans.Bindings {
			set := make(map[string]bool)
			for _, it := range pe.returnItems(b[q.ReturnVar]) {
				down, err := exec.DownstreamIn(e, g, it)
				if err != nil {
					return err
				}
				for _, d := range down {
					set[d] = true
				}
			}
			var ds []string
			for d := range set {
				ds = append(ds, d)
			}
			sort.Strings(ds)
			ans.Downstream = append(ans.Downstream, ds)
		}
	}
	return nil
}

// producedBy and flowingFrom are the linear-scan reference
// implementations of the PreparedExec return-item indexes; they are kept
// as the executable spec TestPreparedExecIndexParity checks against.
func producedBy(e *exec.Execution, nodeID string) []string {
	var out []string
	for id, it := range e.Items {
		if it.Producer == nodeID {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func flowingFrom(e *exec.Execution, nodeID string) []string {
	set := make(map[string]bool)
	for _, ed := range e.Edges {
		if ed.From == nodeID {
			for _, it := range ed.Items {
				set[it] = true
			}
		}
	}
	var out []string
	for it := range set {
		out = append(out, it)
	}
	sort.Strings(out)
	return out
}

// Render renders an answer tersely for CLI output.
func (a *Answer) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution %s: %d binding(s)", a.ExecutionID, len(a.Bindings))
	if a.ZoomedOut {
		b.WriteString(" (zoomed out)")
	}
	b.WriteByte('\n')
	for i, bind := range a.Bindings {
		vars := make([]string, 0, len(bind))
		for v := range bind {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		parts := make([]string, len(vars))
		for j, v := range vars {
			parts[j] = v + "=" + bind[v]
		}
		fmt.Fprintf(&b, "  [%d] %s\n", i, strings.Join(parts, " "))
	}
	return b.String()
}
