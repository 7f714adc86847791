package search_test

// Table equivalence: the precomputed per-spec table must answer exactly
// like a full scan that re-tokenizes every module on every call. The
// reference scan below is kept only here, as the oracle.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// refTerms tokenizes a module from scratch.
func refTerms(m *workflow.Module) map[string]bool {
	set := make(map[string]bool)
	for _, k := range m.AllKeywords() {
		set[search.Normalize(k)] = true
	}
	return set
}

func refPhraseMatches(m *workflow.Module, phrase []string) bool {
	terms := refTerms(m)
	for _, p := range phrase {
		if !terms[p] {
			return false
		}
	}
	return true
}

type refMatch struct {
	module   *workflow.Module
	workflow string
}

// refScan lists the visible modules matching phrase in scan order.
func refScan(s *workflow.Spec, phrase []string, pol *privacy.Policy, level privacy.Level) []refMatch {
	var out []refMatch
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if pol != nil && !pol.CanSeeModule(level, m.ID) {
				continue
			}
			if refPhraseMatches(m, phrase) {
				out = append(out, refMatch{module: m, workflow: wid})
			}
		}
	}
	return out
}

func refMatches(s *workflow.Spec, query [][]string, pol *privacy.Policy, level privacy.Level) bool {
	if len(query) == 0 {
		return false
	}
	for _, phrase := range query {
		if len(refScan(s, phrase, pol, level)) == 0 {
			return false
		}
	}
	return true
}

// refChain walks parents from wid up to the root.
func refChain(h *workflow.Hierarchy, wid string) []string {
	var chain []string
	for cur := wid; cur != ""; cur = h.Parent(cur) {
		chain = append([]string{cur}, chain...)
		if cur == h.Root {
			break
		}
	}
	return chain
}

func refSearch(s *workflow.Spec, query [][]string, accessView workflow.Prefix, pol *privacy.Policy, level privacy.Level) (*search.Result, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		return nil, err
	}
	all := make([][]refMatch, len(query))
	for p, phrase := range query {
		all[p] = refScan(s, phrase, pol, level)
		if len(all[p]) == 0 {
			return nil, fmt.Errorf("search: no match for phrase %q", strings.Join(phrase, " "))
		}
	}
	for p, ms := range all {
		matchWf := make(map[string]bool)
		for _, rm := range ms {
			matchWf[rm.workflow] = true
		}
		var kept []refMatch
		for _, rm := range ms {
			if rm.module.Kind == workflow.Composite {
				superseded := false
				for w := range matchWf {
					inSubtree := false
					for _, c := range refChain(h, w) {
						inSubtree = inSubtree || c == rm.module.Sub
					}
					if (w != rm.workflow && inSubtree) || w == rm.module.Sub {
						superseded = true
					}
				}
				if superseded {
					continue
				}
			}
			kept = append(kept, rm)
		}
		if len(kept) > 0 {
			all[p] = kept
		}
	}
	prefix := workflow.NewPrefix(h.Root)
	zoomed := false
	for _, ms := range all {
		var best []string
		for _, rm := range ms {
			c := refChain(h, rm.workflow)
			if best == nil || len(c) < len(best) ||
				(len(c) == len(best) && strings.Join(c, "/") < strings.Join(best, "/")) {
				best = c
			}
		}
		for _, wid := range best {
			if accessView != nil && !accessView.Contains(wid) {
				zoomed = true
				break
			}
			prefix[wid] = true
		}
	}
	view, err := workflow.Expand(s, prefix)
	if err != nil {
		return nil, err
	}
	res := &search.Result{View: view, Prefix: prefix, ZoomedOut: zoomed}
	type matchKey struct{ phrase, module, zoomedTo string }
	seen := make(map[matchKey]bool)
	for p, ms := range all {
		name := strings.Join(query[p], " ")
		for _, rm := range ms {
			match := search.Match{Phrase: name, ModuleID: rm.module.ID, Workflow: rm.workflow}
			if view.Module(rm.module.ID) == nil {
				for _, w := range refChain(h, rm.workflow) {
					if !prefix.Contains(w) {
						match.ZoomedTo = h.ViaModule(w)
						break
					}
				}
				if match.ZoomedTo == "" {
					continue
				}
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

// equivSpec is a random spec whose modules also carry plural, "ss" and
// mixed-case keywords, so normalization has work to do.
func equivSpec(t *testing.T, seed int64) (*workflow.Spec, *workflow.Hierarchy) {
	t.Helper()
	s, err := workload.RandomSpec(workload.SpecConfig{
		Seed: seed, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	rng := rand.New(rand.NewSource(seed))
	extra := []string{"risks", "Risk", "process", "access", "Genomes", "class", "query"}
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if rng.Intn(2) == 0 {
				m.Keywords = append(m.Keywords, extra[rng.Intn(len(extra))], extra[rng.Intn(len(extra))])
			}
		}
	}
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return s, h
}

// equivPolicy hides random modules at random levels and grants random
// workflows to random levels.
func equivPolicy(s *workflow.Spec, rng *rand.Rand) *privacy.Policy {
	pol := privacy.NewPolicy(s.ID)
	for _, wid := range s.WorkflowIDs() {
		if rng.Intn(2) == 0 {
			lvl := privacy.Level(rng.Intn(4))
			pol.ViewGrants[lvl] = append(pol.ViewGrants[lvl], wid)
		}
		for _, m := range s.Workflows[wid].Modules {
			if rng.Intn(4) == 0 {
				pol.ModuleLevels[m.ID] = privacy.Level(1 + rng.Intn(3))
			}
		}
	}
	return pol
}

// equivQueries mixes generated queries with the edge cases: empty
// phrases, repeated terms and plural/"ss" normalization.
func equivQueries(rng *rand.Rand) [][][]string {
	qs := [][][]string{
		{{}},
		{{}, {"database"}},
		{{"risk", "risk"}},
		{{"query", "query"}, {"query"}},
		search.ParseQuery("risks"),
		search.ParseQuery("Risks risk, genomes"),
		search.ParseQuery("process, access"),
		search.ParseQuery("class"),
		search.ParseQuery("proces"),
		search.ParseQuery("nosuchterm"),
	}
	for _, q := range workload.RandomQueries(rng, nil, 24) {
		qs = append(qs, search.ParseQuery(q))
	}
	return qs
}

func sameAnswer(got *search.Result, gotErr error, want *search.Result, wantErr error) bool {
	if (gotErr == nil) != (wantErr == nil) {
		return false
	}
	if gotErr != nil {
		return gotErr.Error() == wantErr.Error()
	}
	return reflect.DeepEqual(got, want)
}

func TestTableMatchesReferenceScan(t *testing.T) {
	levels := []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}
	for seed := int64(0); seed < 10; seed++ {
		s, h := equivSpec(t, seed)
		tab := search.NewTable(s, h)
		rng := rand.New(rand.NewSource(100 + seed))
		pols := []*privacy.Policy{nil, equivPolicy(s, rng), equivPolicy(s, rng)}
		for _, q := range equivQueries(rng) {
			got, gotErr := search.Search(s, q)
			want, wantErr := refSearch(s, q, nil, nil, 0)
			if !sameAnswer(got, gotErr, want, wantErr) {
				t.Fatalf("seed %d query %q: Search = %+v, %v; reference %+v, %v", seed, q, got, gotErr, want, wantErr)
			}
			for pi, pol := range pols {
				for _, level := range levels {
					wantOK := refMatches(s, q, pol, level)
					if got := tab.Matches(q, pol, level); got != wantOK {
						t.Fatalf("seed %d policy %d level %v query %q: Table.Matches = %v, reference %v", seed, pi, level, q, got, wantOK)
					}
					if got := search.Matches(s, q, pol, level); got != wantOK {
						t.Fatalf("seed %d policy %d level %v query %q: Matches = %v, reference %v", seed, pi, level, q, got, wantOK)
					}
					if pol == nil {
						continue
					}
					access := pol.AccessView(h, level)
					want, wantErr := refSearch(s, q, access, pol, level)
					got, gotErr := tab.SearchWithAccess(q, access, pol, level)
					if !sameAnswer(got, gotErr, want, wantErr) {
						t.Fatalf("seed %d policy %d level %v query %q: Table.SearchWithAccess = %+v, %v; reference %+v, %v",
							seed, pi, level, q, got, gotErr, want, wantErr)
					}
					got, gotErr = search.SearchWithAccess(s, q, access, pol, level)
					if !sameAnswer(got, gotErr, want, wantErr) {
						t.Fatalf("seed %d policy %d level %v query %q: SearchWithAccess = %+v, %v; reference %+v, %v",
							seed, pi, level, q, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
}

// TestTableHiddenModule: a module hidden at a level is invisible to the
// table at that level and found again at its own level.
func TestTableHiddenModule(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatal(err)
	}
	tab := search.NewTable(s, h)
	q := search.ParseQuery("omim")
	pol := privacy.NewPolicy(s.ID)
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if refPhraseMatches(m, q[0]) {
				pol.ModuleLevels[m.ID] = privacy.Analyst
			}
		}
	}
	if len(pol.ModuleLevels) == 0 {
		t.Fatal("fixture: no module matches omim")
	}
	if !tab.Matches(q, nil, privacy.Public) {
		t.Fatal("omim not found without a policy")
	}
	if tab.Matches(q, pol, privacy.Registered) {
		t.Fatal("module hidden at Registered matched at Registered")
	}
	if !tab.Matches(q, pol, privacy.Analyst) {
		t.Fatal("module visible at Analyst not matched at Analyst")
	}
	if _, err := tab.SearchWithAccess(q, workflow.FullPrefix(h), pol, privacy.Registered); err == nil {
		t.Fatal("SearchWithAccess answered a query whose only matches are hidden")
	}
}

// TestTableHonoursPolicyUpdate: the repository builds a shard's table
// once, so a policy update must change what search sees without a new
// table.
func TestTableHonoursPolicyUpdate(t *testing.T) {
	s, h := equivSpec(t, 3)
	r := repo.New()
	if err := r.AddSpec(s, nil); err != nil {
		t.Fatal(err)
	}
	r.AddUser(privacy.User{Name: "u", Level: privacy.Registered, Group: "g"})
	q := "risks"
	phrases := search.ParseQuery(q)
	check := func(pol *privacy.Policy) bool {
		t.Helper()
		hits, err := r.Search("u", q, repo.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		access := pol.AccessView(h, privacy.Registered)
		want, wantErr := refSearch(s, phrases, access, pol, privacy.Registered)
		if wantErr != nil {
			if len(hits) != 0 {
				t.Fatalf("hit %+v where the reference fails: %v", hits[0].Result, wantErr)
			}
			return false
		}
		if len(hits) != 1 || !reflect.DeepEqual(hits[0].Result, want) {
			t.Fatalf("hits %+v, reference %+v", hits, want)
		}
		return true
	}
	open := privacy.NewPolicy(s.ID)
	if !check(open) {
		t.Fatal("fixture: query matches nothing under the open policy")
	}
	closed := privacy.NewPolicy(s.ID)
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if refPhraseMatches(m, phrases[0]) {
				closed.ModuleLevels[m.ID] = privacy.Owner
			}
		}
	}
	if err := r.UpdatePolicy(s.ID, closed); err != nil {
		t.Fatal(err)
	}
	if check(closed) {
		t.Fatal("search still matches modules the new policy hides")
	}
	if err := r.UpdatePolicy(s.ID, open); err != nil {
		t.Fatal(err)
	}
	if !check(open) {
		t.Fatal("search lost the modules the restored policy shows")
	}
}
