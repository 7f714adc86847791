// Package index provides the access structures Section 4 of the CIDR
// 2011 paper calls for ("we must manage an index with different user
// views"): an inverted keyword index whose postings carry the minimum
// access level allowed to see them — so one physical index serves every
// privilege level, instead of one repository copy per level — plus a
// precomputed reachability index for structural queries and a per-user-
// group result cache ("another promising direction is to consider user
// groups when utilizing cached information").
package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
)

// Posting records one keyword occurrence: the module carrying the term
// and the minimum level allowed to learn the module's identity.
type Posting struct {
	SpecID   string
	ModuleID string
	Workflow string
	MinLevel privacy.Level
}

// postingLess is the canonical posting order: MinLevel first (so a
// level-filtered lookup is a prefix scan), then spec and module ids for
// determinism.
func postingLess(a, b Posting) bool {
	if a.MinLevel != b.MinLevel {
		return a.MinLevel < b.MinLevel
	}
	if a.SpecID != b.SpecID {
		return a.SpecID < b.SpecID
	}
	return a.ModuleID < b.ModuleID
}

// segment holds one spec's postings, keyed by term and sorted in
// canonical order. Segments are immutable once built; mutating a spec
// replaces its segment wholesale.
type segment struct {
	specID   string
	postings map[string][]Posting
}

// buildSegment extracts one spec's postings. policy may be nil (all
// modules public).
func buildSegment(s *workflow.Spec, pol *privacy.Policy) *segment {
	seg := &segment{specID: s.ID, postings: make(map[string][]Posting)}
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			minLevel := privacy.Public
			if pol != nil {
				minLevel = pol.ModuleLevels[m.ID]
			}
			seen := make(map[string]bool)
			for _, term := range search.ModuleTerms(m) {
				if seen[term] {
					continue // distinct raw keywords may normalize alike
				}
				seen[term] = true
				seg.postings[term] = append(seg.postings[term], Posting{
					SpecID: s.ID, ModuleID: m.ID, Workflow: wid, MinLevel: minLevel,
				})
			}
		}
	}
	for term := range seg.postings {
		ps := seg.postings[term]
		sort.Slice(ps, func(i, j int) bool { return postingLess(ps[i], ps[j]) })
	}
	return seg
}

// invSnapshot is an immutable merged view of every segment. Readers load
// it with one atomic pointer read; writers build a replacement (copying
// only the term lists they touch — untouched lists are shared) and swap
// it in.
type invSnapshot struct {
	postings map[string][]Posting
	count    int // total postings across all terms
}

var emptyInvSnapshot = &invSnapshot{postings: map[string][]Posting{}}

// Inverted is a privacy-classified inverted keyword index over a set of
// specifications, organized as one segment per spec behind an atomically
// published merged snapshot.
//
// Concurrency: Lookup, Terms, Postings and Segments read the current
// snapshot without acquiring any lock, so a fleet of concurrent readers
// never serializes and never observes a half-applied mutation. AddSpec
// and RemoveSpec serialize on an internal mutex, rebuild only the term
// lists the mutated spec touches (sharing the rest with the previous
// snapshot), and publish the result with one atomic swap: once a
// mutation returns, every subsequent Lookup sees it.
type Inverted struct {
	mu       sync.Mutex // serializes writers; readers never take it
	segments map[string]*segment
	snap     atomic.Pointer[invSnapshot]
	swaps    atomic.Int64
}

// BuildInverted indexes every module keyword of every spec. policies
// (keyed by spec id, may be nil or sparse) supply module privacy levels;
// unlisted modules are public.
func BuildInverted(specs []*workflow.Spec, policies map[string]*privacy.Policy) *Inverted {
	ix := &Inverted{segments: make(map[string]*segment, len(specs))}
	merged := make(map[string][]Posting)
	count := 0
	for _, s := range specs {
		var pol *privacy.Policy
		if policies != nil {
			pol = policies[s.ID]
		}
		seg := buildSegment(s, pol)
		ix.segments[s.ID] = seg
		for term, ps := range seg.postings {
			merged[term] = append(merged[term], ps...)
			count += len(ps)
		}
	}
	for term := range merged {
		ps := merged[term]
		sort.Slice(ps, func(i, j int) bool { return postingLess(ps[i], ps[j]) })
	}
	ix.snap.Store(&invSnapshot{postings: merged, count: count})
	return ix
}

// snapshot returns the current published snapshot (never nil).
func (ix *Inverted) snapshot() *invSnapshot {
	if s := ix.snap.Load(); s != nil {
		return s
	}
	return emptyInvSnapshot
}

// AddSpec indexes one more spec (replacing its postings if already
// indexed, so a policy change re-registers cleanly). Cost is
// O(index terms) for the snapshot map copy plus O(touched-term postings)
// for the term lists the spec appears in; postings of untouched terms
// are shared with the previous snapshot, not copied.
func (ix *Inverted) AddSpec(s *workflow.Spec, pol *privacy.Policy) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.segments == nil {
		ix.segments = make(map[string]*segment)
	}
	seg := buildSegment(s, pol)
	ix.publish(s.ID, seg)
}

// RemoveSpec drops every posting of the given spec id. Only the term
// lists the spec itself occupies are rewritten — O(spec's own terms),
// not a scan over every posting in the index.
func (ix *Inverted) RemoveSpec(specID string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.segments[specID] == nil {
		return
	}
	ix.publish(specID, nil)
}

// publish installs (seg != nil) or removes (seg == nil) the segment of
// one spec and swaps in a snapshot reflecting it. Caller holds ix.mu.
func (ix *Inverted) publish(specID string, seg *segment) {
	old := ix.snapshot()
	prev := ix.segments[specID]

	// Terms whose merged list changes: union of the old and new segment.
	touched := make(map[string]bool)
	if prev != nil {
		for term := range prev.postings {
			touched[term] = true
		}
	}
	if seg != nil {
		for term := range seg.postings {
			touched[term] = true
		}
	}

	next := make(map[string][]Posting, len(old.postings)+len(touched))
	count := old.count
	for term, ps := range old.postings {
		next[term] = ps // shared; touched terms are replaced below
	}
	for term := range touched {
		var add []Posting
		if seg != nil {
			add = seg.postings[term]
		}
		merged := mergeTerm(old.postings[term], specID, add)
		count += len(merged) - len(old.postings[term])
		if len(merged) == 0 {
			delete(next, term)
		} else {
			next[term] = merged
		}
	}

	if seg == nil {
		delete(ix.segments, specID)
	} else {
		ix.segments[specID] = seg
	}
	ix.snap.Store(&invSnapshot{postings: next, count: count})
	ix.swaps.Add(1)
}

// mergeTerm rebuilds one term's posting list: postings of specID are
// dropped from old, and add (sorted, all belonging to specID) is merged
// in canonical order. The result is always a fresh slice.
func mergeTerm(old []Posting, specID string, add []Posting) []Posting {
	merged := make([]Posting, 0, len(old)+len(add))
	j := 0
	for _, p := range old {
		if p.SpecID == specID {
			continue
		}
		for j < len(add) && postingLess(add[j], p) {
			merged = append(merged, add[j])
			j++
		}
		merged = append(merged, p)
	}
	merged = append(merged, add[j:]...)
	return merged
}

// Lookup returns the postings for term visible at the given level. It
// reads the current snapshot with a single atomic load — no mutex — so
// concurrent writers never stall it. The scan stops at the first posting
// above the level (postings are sorted by MinLevel), so low-privilege
// lookups touch only their own prefix.
func (ix *Inverted) Lookup(term string, level privacy.Level) []Posting {
	ps := ix.snapshot().postings[search.Normalize(term)]
	var out []Posting
	for _, p := range ps {
		if p.MinLevel > level {
			break
		}
		out = append(out, p)
	}
	return out
}

// Terms returns all indexed terms, sorted.
func (ix *Inverted) Terms() []string {
	snap := ix.snapshot()
	ts := make([]string, 0, len(snap.postings))
	for t := range snap.postings {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}

// Postings returns the total number of postings (for size accounting).
func (ix *Inverted) Postings() int {
	return ix.snapshot().count
}

// TermCount returns the number of distinct indexed terms in O(1) —
// unlike Terms, it neither copies nor sorts (for stats/metrics paths).
func (ix *Inverted) TermCount() int {
	return len(ix.snapshot().postings)
}

// Segments returns the number of per-spec segments currently indexed.
func (ix *Inverted) Segments() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.segments)
}

// Swaps returns how many snapshot publications (spec mutations) the
// index has performed — a churn counter for the metrics endpoint.
func (ix *Inverted) Swaps() int64 {
	return ix.swaps.Load()
}

// NaiveLookup is the no-index baseline used by benchmark B4: scan every
// module of every spec on each query, re-checking the policy each time.
func NaiveLookup(specs []*workflow.Spec, policies map[string]*privacy.Policy, term string, level privacy.Level) []Posting {
	want := search.Normalize(term)
	var out []Posting
	for _, s := range specs {
		var pol *privacy.Policy
		if policies != nil {
			pol = policies[s.ID]
		}
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				if pol != nil && !pol.CanSeeModule(level, m.ID) {
					continue
				}
				if slices.Contains(search.ModuleTerms(m), want) {
					minLevel := privacy.Public
					if pol != nil {
						minLevel = pol.ModuleLevels[m.ID]
					}
					out = append(out, Posting{SpecID: s.ID, ModuleID: m.ID, Workflow: wid, MinLevel: minLevel})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return postingLess(out[i], out[j]) })
	return out
}

// reachSnapshot is the immutable published state of a ReachIndex.
type reachSnapshot struct {
	graphs   map[string]*graph.Graph
	closures map[string]*graph.Closure
}

var emptyReachSnapshot = &reachSnapshot{
	graphs:   map[string]*graph.Graph{},
	closures: map[string]*graph.Closure{},
}

// ReachIndex precomputes, per spec, the transitive closure of the full
// expansion, answering "does module u contribute to module v" in O(1)
// for structural-query evaluation. Like Inverted, it publishes its state
// as an atomically swapped snapshot: Reaches is lock-free, AddSpec and
// RemoveSpec copy the per-spec directory (graphs and closures themselves
// are shared, immutable values) and swap.
type ReachIndex struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[reachSnapshot]
}

// BuildReach builds the index for the given specs.
func BuildReach(specs []*workflow.Spec) (*ReachIndex, error) {
	snap := &reachSnapshot{
		graphs:   make(map[string]*graph.Graph, len(specs)),
		closures: make(map[string]*graph.Closure, len(specs)),
	}
	for _, s := range specs {
		g, cl, err := buildReachEntry(s)
		if err != nil {
			return nil, err
		}
		snap.graphs[s.ID] = g
		snap.closures[s.ID] = cl
	}
	r := &ReachIndex{}
	r.snap.Store(snap)
	return r, nil
}

func buildReachEntry(s *workflow.Spec) (*graph.Graph, *graph.Closure, error) {
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		return nil, nil, err
	}
	v, err := workflow.Expand(s, workflow.FullPrefix(h))
	if err != nil {
		return nil, nil, err
	}
	g := v.Graph()
	cl, err := graph.NewClosure(g)
	if err != nil {
		return nil, nil, err
	}
	return g, cl, nil
}

func (r *ReachIndex) snapshot() *reachSnapshot {
	if s := r.snap.Load(); s != nil {
		return s
	}
	return emptyReachSnapshot
}

// AddSpec incrementally indexes one spec's reachability.
func (r *ReachIndex) AddSpec(s *workflow.Spec) error {
	g, cl, err := buildReachEntry(s)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snapshot()
	next := &reachSnapshot{
		graphs:   make(map[string]*graph.Graph, len(old.graphs)+1),
		closures: make(map[string]*graph.Closure, len(old.closures)+1),
	}
	for id, og := range old.graphs {
		next.graphs[id] = og
		next.closures[id] = old.closures[id]
	}
	next.graphs[s.ID] = g
	next.closures[s.ID] = cl
	r.snap.Store(next)
	return nil
}

// RemoveSpec drops a spec's reachability graph and closure.
func (r *ReachIndex) RemoveSpec(specID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snapshot()
	if old.graphs[specID] == nil {
		return
	}
	next := &reachSnapshot{
		graphs:   make(map[string]*graph.Graph, len(old.graphs)),
		closures: make(map[string]*graph.Closure, len(old.closures)),
	}
	for id, og := range old.graphs {
		if id == specID {
			continue
		}
		next.graphs[id] = og
		next.closures[id] = old.closures[id]
	}
	r.snap.Store(next)
}

// Reaches reports whether fromModule contributes (transitively) to
// toModule in the spec's full expansion. Unknown ids report false.
// Lock-free: reads the current snapshot.
func (r *ReachIndex) Reaches(specID, fromModule, toModule string) bool {
	snap := r.snapshot()
	g := snap.graphs[specID]
	if g == nil {
		return false
	}
	u, v := g.Lookup(fromModule), g.Lookup(toModule)
	if u == graph.Invalid || v == graph.Invalid {
		return false
	}
	return snap.closures[specID].Reach(u, v)
}

// Cache is a bounded, concurrency-safe result cache keyed by
// (user group, query key): users in the same group share privacy
// settings, so they can safely share materialized answers. It is backed
// by the same LRU core as the per-shard view cache, so eviction is
// recency-based rather than drop-all, and hit/miss counters feed the
// metrics endpoint.
type Cache struct {
	lru *LRU[string, any]
}

// NewCache returns a cache bounded to capacity entries (≥1).
func NewCache(capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("index: cache capacity %d < 1", capacity)
	}
	return &Cache{lru: NewLRU[string, any](capacity, 0)}, nil
}

func cacheKey(group, key string) string { return group + "\x00" + key }

// Get returns the cached value for (group, key).
func (c *Cache) Get(group, key string) (any, bool) {
	return c.lru.Get(cacheKey(group, key))
}

// Put stores a value for (group, key), evicting the least recently used
// entry when full.
func (c *Cache) Put(group, key string, v any) {
	c.lru.Put(cacheKey(group, key), v)
}

// Stats returns (hits, misses).
func (c *Cache) Stats() (hits, misses int) {
	h, m := c.lru.Stats()
	return int(h), int(m)
}
