package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"provpriv/internal/privacy"
)

// The leak oracle applies the rules of internal/sim to wire answers:
// no module above the principal's level, no unredacted protected
// attribute, no search prefix outside the principal's access view. It
// also rejects a 200 body that does not decode as the route's answer.

type wireSearch struct {
	Hits []struct {
		Spec    string   `json:"spec"`
		Prefix  []string `json:"prefix"`
		Matches []struct {
			Module string `json:"module"`
		} `json:"matches"`
	} `json:"hits"`
}

type wireQuery struct {
	Spec    string `json:"spec"`
	Answers []struct {
		Execution string              `json:"execution"`
		Bindings  []map[string]string `json:"bindings"`
	} `json:"answers"`
}

type wireProvenance struct {
	Spec       string `json:"spec"`
	Provenance struct {
		Items map[string]struct {
			Attr     string `json:"attr"`
			Redacted bool   `json:"redacted"`
		} `json:"items"`
	} `json:"provenance"`
}

// checkAnswer returns the leaks in one 200 answer, or an error when the
// body is malformed.
func (c *corpus) checkAnswer(a answer) (int, error) {
	lvl := privacy.Level(a.level)
	switch a.kind {
	case kSearch:
		var w wireSearch
		if err := json.Unmarshal(a.body, &w); err != nil {
			return 0, fmt.Errorf("search body: %w", err)
		}
		leaks := 0
		for _, h := range w.Hits {
			i, ok := c.specIdx[h.Spec]
			if !ok {
				return 0, fmt.Errorf("search hit on unknown spec %q", h.Spec)
			}
			access := c.pols[i].AccessView(c.hiers[i], lvl)
			for _, wid := range h.Prefix {
				if !access.Contains(wid) {
					leaks++
				}
			}
			for _, m := range h.Matches {
				if !c.pols[i].CanSeeModule(lvl, m.Module) {
					leaks++
				}
			}
		}
		return leaks, nil
	case kSpecQuery, kExecQuery:
		var w wireQuery
		if err := json.Unmarshal(a.body, &w); err != nil {
			return 0, fmt.Errorf("query body: %w", err)
		}
		i, ok := c.specIdx[w.Spec]
		if !ok {
			return 0, fmt.Errorf("query answer for unknown spec %q", w.Spec)
		}
		leaks := 0
		for _, ans := range w.Answers {
			for _, b := range ans.Bindings {
				for _, node := range b {
					if m := c.boundModule(w.Spec, ans.Execution, node); m != "" && !c.pols[i].CanSeeModule(lvl, m) {
						leaks++
					}
				}
			}
		}
		return leaks, nil
	case kProvenance:
		var w wireProvenance
		if err := json.Unmarshal(a.body, &w); err != nil {
			return 0, fmt.Errorf("provenance body: %w", err)
		}
		i, ok := c.specIdx[w.Spec]
		if !ok {
			return 0, fmt.Errorf("provenance for unknown spec %q", w.Spec)
		}
		if len(w.Provenance.Items) == 0 {
			return 0, fmt.Errorf("provenance answer with no items")
		}
		leaks := 0
		for _, it := range w.Provenance.Items {
			if !c.pols[i].CanSeeData(lvl, it.Attr) && !it.Redacted {
				leaks++
			}
		}
		return leaks, nil
	}
	return 0, fmt.Errorf("no oracle for %s answers", a.kind)
}

// boundModule resolves a bound node id of an answer to its module: a
// node collapsed into a composite is named "proc:module", any other
// node is looked up in the execution as generated. Executions posted
// during the run are not in the corpus and resolve to "".
func (c *corpus) boundModule(spec, execID, node string) string {
	if i := strings.LastIndexByte(node, ':'); i >= 0 {
		return node[i+1:]
	}
	e := c.execIdx[spec+"/"+execID]
	if e == nil {
		return ""
	}
	if n := e.Node(node); n != nil {
		return n.Module
	}
	return ""
}
