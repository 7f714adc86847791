// Package search implements keyword queries over hierarchical workflow
// specifications (Section 4 of the CIDR 2011 paper; semantics follow
// Liu, Shao and Chen, "Searching workflows with hierarchical views",
// PVLDB 2010, cited as [7]): the answer to a keyword query is a MINIMAL
// VIEW of the workflow — a prefix of the expansion hierarchy — that
// contains a match for every query phrase, drilling into composite
// modules exactly when a finer match exists inside them.
//
// On the paper's Fig. 1 workflow, the query "database, disorder risks"
// yields the view of prefix {W1, W2, W4} — Figure 5 — because
// "database" matches most specifically inside W4 (Generate Database
// Queries) while "disorder risks" matches the collapsed composite M2
// and nothing finer inside it.
//
// The privacy-aware variant clips the ideal view to the user's access
// view, re-mapping finer matches to their deepest visible ancestor
// composite (the "zoom-out" of Section 4), and refuses to match modules
// whose identity is protected by module privacy.
package search

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

// Tokenize lowercases and splits a query or name into normalized terms.
// A trailing plural "s" is stripped from terms of length ≥ 4 so that
// "Risks" matches "risk".
func Tokenize(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '-' || r == '_' || r == '/' || r == '.'
	})
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		// Fields made only of untrimmed whitespace (\r, \n, …) normalize
		// to nothing; an empty term can never match and must not count
		// as a phrase.
		if t := Normalize(f); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// Normalize applies the term normalization used by both indexing and
// querying.
func Normalize(term string) string {
	t := strings.ToLower(strings.TrimSpace(term))
	if len(t) >= 4 && strings.HasSuffix(t, "s") && !strings.HasSuffix(t, "ss") {
		t = t[:len(t)-1]
	}
	return t
}

// ParseQuery splits a comma-separated keyword query into phrases, each
// a set of terms that must all match the same module ("database,
// disorder risks" → ["database"], ["disorder","risks"]).
func ParseQuery(q string) [][]string {
	var out [][]string
	for _, part := range strings.Split(q, ",") {
		toks := Tokenize(part)
		if len(toks) > 0 {
			out = append(out, toks)
		}
	}
	return out
}

// Match records that a phrase matched a module.
type Match struct {
	Phrase   string // the phrase, space-joined
	ModuleID string
	Workflow string // workflow containing the module
	ZoomedTo string // if privacy re-mapped the match, the visible ancestor
}

// Result is a keyword-search answer: the minimal view and the matches
// visible in it.
type Result struct {
	View      *workflow.View
	Prefix    workflow.Prefix
	Matches   []Match
	ZoomedOut bool // the ideal view was clipped by the user's access view
}

// ModuleTerms returns a module's normalized search terms: Normalize
// applied to each of Module.AllKeywords, in that order. Distinct
// keywords may normalize alike ("risks", "risk"), so a term can repeat;
// the repetition is kept because ranking counts term frequency.
func ModuleTerms(m *workflow.Module) []string {
	terms := m.AllKeywords()
	for i, k := range terms {
		terms[i] = Normalize(k)
	}
	return terms
}

// Table is the policy-independent search state of one spec, built once
// and read by any number of concurrent queries: every module's terms, a
// posting list per term, the expansion hierarchy and each workflow's
// root→workflow chain. Visibility is still decided per query by the
// policy passed in, so a policy change needs no new table. A Table is
// immutable once built.
type Table struct {
	spec *workflow.Spec
	hier *workflow.Hierarchy
	// mods lists the spec's modules in scan order (sorted workflow ids,
	// then module order); positions into it are module handles.
	mods []tableModule
	// postings maps a term to the ascending positions of the modules
	// carrying it; all holds every position. A one-shot table has no
	// postings: it scans all and tokenizes modules as it reaches them.
	postings map[string][]int32
	all      []int32
}

type tableModule struct {
	module   *workflow.Module
	workflow string
	terms    []string
	chain    *chain // shared by every module of the workflow
}

// chain is a workflow's path from the root, with the "/"-joined key
// that breaks ties between equally deep requirements.
type chain struct {
	wids []string
	key  string
}

// NewTable builds the search table of a validated spec whose expansion
// hierarchy is h.
func NewTable(spec *workflow.Spec, h *workflow.Hierarchy) *Table {
	return newTable(spec, h, true)
}

// newTable builds a table. Without indexed it builds a one-shot table
// for a single call: no postings, terms filled in on first use, so a
// query that stops early tokenizes only the modules it reached; such a
// table must not be shared. With a nil h it skips the chains and serves
// Matches only.
func newTable(spec *workflow.Spec, h *workflow.Hierarchy, indexed bool) *Table {
	wids := spec.WorkflowIDs()
	n := 0
	for _, wid := range wids {
		n += len(spec.Workflows[wid].Modules)
	}
	t := &Table{
		spec: spec,
		hier: h,
		mods: make([]tableModule, 0, n),
		all:  make([]int32, n),
	}
	if indexed {
		t.postings = make(map[string][]int32)
	}
	for _, wid := range wids {
		var c *chain
		if h != nil {
			ids := h.Chain(wid)
			c = &chain{wids: ids, key: strings.Join(ids, "/")}
		}
		for _, m := range spec.Workflows[wid].Modules {
			i := int32(len(t.mods))
			tm := tableModule{module: m, workflow: wid, chain: c}
			if indexed {
				tm.terms = ModuleTerms(m)
				for _, term := range tm.terms {
					ps := t.postings[term]
					if len(ps) > 0 && ps[len(ps)-1] == i {
						continue // a repeated term posts the module once
					}
					t.postings[term] = append(ps, i)
				}
			}
			t.mods = append(t.mods, tm)
			t.all[i] = i
		}
	}
	return t
}

// oneShot builds the table behind the spec-taking wrappers.
func oneShot(spec *workflow.Spec) (*Table, error) {
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		return nil, err
	}
	return newTable(spec, h, false), nil
}

// candidates returns the positions that can match phrase, in scan
// order, and the terms still to check on each: on an indexed table the
// posting list of the first term guarantees that term.
func (t *Table) candidates(phrase []string) ([]int32, []string) {
	if t.postings == nil || len(phrase) == 0 {
		return t.all, phrase // an empty phrase matches any visible module
	}
	return t.postings[phrase[0]], phrase[1:]
}

// matchesAt reports whether module i is visible at level and carries
// every term of rest.
func (t *Table) matchesAt(i int32, rest []string, pol *privacy.Policy, level privacy.Level) bool {
	m := &t.mods[i]
	if pol != nil && !pol.CanSeeModule(level, m.module.ID) {
		return false // module privacy: identity not searchable
	}
	if len(rest) == 0 {
		return true
	}
	if m.terms == nil && t.postings == nil {
		m.terms = ModuleTerms(m.module) // one-shot table: tokenize on first use
	}
	for _, term := range rest {
		if !slices.Contains(m.terms, term) {
			return false
		}
	}
	return true
}

// Search evaluates a keyword query (see ParseQuery) against a spec with
// no privacy constraints and returns the minimal view containing all
// matches. It returns an error when some phrase matches nothing.
func Search(spec *workflow.Spec, query [][]string) (*Result, error) {
	t, err := oneShot(spec)
	if err != nil {
		return nil, err
	}
	return t.search(query, nil, nil, 0)
}

// Matches is Table.Matches on a table built for this call.
func Matches(spec *workflow.Spec, query [][]string, pol *privacy.Policy, level privacy.Level) bool {
	return newTable(spec, nil, false).Matches(query, pol, level)
}

// Matches reports whether SearchWithAccess would succeed for the query —
// i.e. every phrase matches at least one module visible under module
// privacy — without building the minimal prefix or the answer view.
// This is the pagination predicate: windowed repository search uses it
// to count the full result set while materializing views only for the
// requested page.
//
// Equivalence with SearchWithAccess: beyond the per-phrase
// visible-match requirement tested here, the search can only fail on
// structurally invalid specs (hierarchy/expand errors, impossible for
// specs the repository validated on registration); its "all matches
// suppressed" guard is unreachable when every phrase has a visible
// match, because a match is dropped from the report only when its whole
// workflow chain is in the prefix yet the module is absent from the
// view — a contradiction for expanded prefixes.
// TestMatchesAgreesWithSearch pins the equivalence property-style.
func (t *Table) Matches(query [][]string, pol *privacy.Policy, level privacy.Level) bool {
	if len(query) == 0 {
		return false
	}
next:
	for _, phrase := range query {
		ids, rest := t.candidates(phrase)
		for _, i := range ids {
			if t.matchesAt(i, rest, pol, level) {
				continue next
			}
		}
		return false
	}
	return true
}

// SearchWithAccess is Table.SearchWithAccess on a table built for this
// call.
func SearchWithAccess(spec *workflow.Spec, query [][]string, accessView workflow.Prefix, pol *privacy.Policy, level privacy.Level) (*Result, error) {
	t, err := oneShot(spec)
	if err != nil {
		return nil, err
	}
	return t.SearchWithAccess(query, accessView, pol, level)
}

// SearchWithAccess evaluates the query under an access view and a
// policy: the answer view never exceeds accessView, matches on modules
// hidden by module privacy are discarded, and matches inside workflows
// beyond the access view zoom out to their deepest visible ancestor.
func (t *Table) SearchWithAccess(query [][]string, accessView workflow.Prefix, pol *privacy.Policy, level privacy.Level) (*Result, error) {
	if accessView == nil {
		return nil, fmt.Errorf("search: nil access view")
	}
	return t.search(query, accessView, pol, level)
}

func (t *Table) search(query [][]string, accessView workflow.Prefix, pol *privacy.Policy, level privacy.Level) (*Result, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}

	// Collect raw matches (table positions) per phrase.
	matches := make([][]int32, len(query))
	for p, phrase := range query {
		ids, rest := t.candidates(phrase)
		for _, i := range ids {
			if t.matchesAt(i, rest, pol, level) {
				matches[p] = append(matches[p], i)
			}
		}
		if len(matches[p]) == 0 {
			return nil, fmt.Errorf("search: no match for phrase %q", strings.Join(phrase, " "))
		}
	}

	// Supersession: drop a match on a composite module when the phrase
	// also matches inside its expansion subtree (the finer match is the
	// answer; the composite merely summarizes it).
	for p := range matches {
		matches[p] = t.dropSuperseded(matches[p])
	}

	// Minimal prefix: per phrase, the cheapest requirement (fewest
	// workflows added, ties broken lexicographically); union across
	// phrases, clipped to the access view with zoom-out.
	prefix := workflow.NewPrefix(t.hier.Root)
	zoomed := false
	for _, ms := range matches {
		if t.cheapestRequirement(prefix, ms, accessView) {
			zoomed = true
		}
	}
	view, err := workflow.ExpandWith(t.spec, t.hier, prefix)
	if err != nil {
		return nil, err
	}

	// Report every match visible in the final view; invisible finer
	// matches zoom out to their visible ancestor composite.
	res := &Result{View: view, Prefix: prefix, ZoomedOut: zoomed}
	// Composite dedup key as a struct, not a "|"-joined string: module
	// IDs are wire-writable, and an ID containing the separator could
	// alias two distinct matches into one (provlint cachekey).
	type matchKey struct{ phrase, module, zoomedTo string }
	seen := make(map[matchKey]bool)
	for p, ms := range matches {
		name := strings.Join(query[p], " ")
		for _, i := range ms {
			tm := &t.mods[i]
			match := Match{Phrase: name, ModuleID: tm.module.ID, Workflow: tm.workflow}
			if view.Module(tm.module.ID) == nil {
				anc := t.visibleAncestor(tm.chain, prefix)
				if anc == "" {
					continue
				}
				match.ZoomedTo = anc
			}
			key := matchKey{phrase: name, module: match.ModuleID, zoomedTo: match.ZoomedTo}
			if !seen[key] {
				seen[key] = true
				res.Matches = append(res.Matches, match)
			}
		}
	}
	sort.Slice(res.Matches, func(i, j int) bool {
		if res.Matches[i].Phrase != res.Matches[j].Phrase {
			return res.Matches[i].Phrase < res.Matches[j].Phrase
		}
		return res.Matches[i].ModuleID < res.Matches[j].ModuleID
	})
	if len(res.Matches) == 0 {
		return nil, fmt.Errorf("search: all matches suppressed by privacy constraints")
	}
	return res, nil
}

// dropSuperseded removes matches on composite modules whose subtree
// contains another match for the same phrase.
func (t *Table) dropSuperseded(ms []int32) []int32 {
	// Chains of the workflows containing a match: matches cluster in a
	// few workflows, so a slice beats a set.
	var chains []*chain
	for _, i := range ms {
		if c := t.mods[i].chain; !slices.Contains(chains, c) {
			chains = append(chains, c)
		}
	}
	superseded := func(tm *tableModule) bool {
		for _, c := range chains {
			w := c.wids[len(c.wids)-1]
			if w == tm.module.Sub || (w != tm.workflow && slices.Contains(c.wids, tm.module.Sub)) {
				return true
			}
		}
		return false
	}
	var out []int32
	for _, i := range ms {
		if tm := &t.mods[i]; tm.module.Kind == workflow.Composite && superseded(tm) {
			continue
		}
		out = append(out, i)
	}
	if len(out) == 0 {
		return ms // defensive: never drop everything
	}
	return out
}

// cheapestRequirement adds to prefix the smallest extension making
// some match of the phrase visible: the shortest chain, ties broken by
// chain key. When an access view is supplied and that chain leaves it,
// the requirement is clipped (zoom-out) and clipped is true.
func (t *Table) cheapestRequirement(prefix workflow.Prefix, ms []int32, accessView workflow.Prefix) (clipped bool) {
	var best *chain
	for _, i := range ms {
		c := t.mods[i].chain
		if best == nil || len(c.wids) < len(best.wids) ||
			(len(c.wids) == len(best.wids) && c.key < best.key) {
			best = c
		}
	}
	for _, wid := range best.wids {
		if accessView != nil && !accessView.Contains(wid) {
			return true // prefix-closed: once outside, everything deeper is too
		}
		prefix[wid] = true
	}
	return false
}

// visibleAncestor returns the composite module that represents the
// workflow at the end of c in the view of the given prefix: the
// via-module of the shallowest chain workflow not in the prefix (""
// if the whole chain is visible).
func (t *Table) visibleAncestor(c *chain, prefix workflow.Prefix) string {
	for _, w := range c.wids {
		if !prefix.Contains(w) {
			return t.hier.ViaModule(w)
		}
	}
	return ""
}
