// Package repo implements the provenance-aware workflow repository the
// paper envisions (Section 1): a shared store of workflow specifications
// and provenance graphs that many users — with different access levels —
// search and query. Privacy is enforced inside the query engine rather
// than by maintaining one repository copy per privilege level ("the
// alternative would be to create multiple repositories corresponding to
// different levels of access, which would lead to inconsistencies,
// inefficiency, and a lack of flexibility").
//
// The repository wires together the other packages: privacy-classified
// inverted and reachability indexes (index), minimal-view keyword search
// (search), TF-IDF ranking with optional score bucketing (rank),
// structural queries with privacy-controlled semantics (query), and
// masked provenance retrieval (datapriv + exec views).
//
// Concurrency model: state is sharded per specification. Each shard
// owns its spec, policy, executions, generalization hierarchies and
// materialized views behind its own RWMutex, so traffic against
// different specs never contends. The repository level keeps only the
// shard directory, the user registry, the shared keyword/reachability
// indexes and the per-level ranking corpora. The shared indexes
// (index.Inverted, index.ReachIndex) publish their state as atomically
// swapped immutable snapshots, so index reads on the search and reach
// paths acquire no lock at all and spec mutations never stall readers.
// Derived per-level ranking corpora are maintained incrementally: a
// spec mutation applies an AddDoc/RemoveDoc delta to every already-built
// corpus (cost proportional to the mutated spec, not the repository)
// and only a policy change that reclassifies module levels falls back to
// invalidate-and-rebuild. Multi-spec operations (Search, QueryAll,
// EnableMaterialization) fan out across a bounded worker pool and merge
// deterministically; lazily built per-level artifacts (ranking corpora,
// collapsed provenance views) are deduplicated with a singleflight group
// so concurrent identical requests build each view exactly once.
//
// Lock ordering: polMu (policy-sensitive mutators) before mu (shard
// directory) before corpusMu before a shard's mu. Read paths never hold
// two locks at once — they resolve the shard pointer, release the
// directory lock, then lock the shard.
package repo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/index"
	"provpriv/internal/obs"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/rank"
	"provpriv/internal/search"
	"provpriv/internal/taint"
	"provpriv/internal/workflow"
)

// Sentinel errors, exposed so transport layers (internal/server) can map
// failures to protocol status codes with errors.Is instead of string
// matching.
var (
	// ErrNotFound marks lookups of unknown specs, executions or items.
	ErrNotFound = errors.New("not found")
	// ErrDenied marks requests refused by privacy policy: the entity
	// exists but is not visible at the caller's access level.
	ErrDenied = errors.New("access denied")
	// ErrUnknownUser marks requests by unregistered principals.
	ErrUnknownUser = errors.New("unknown user")
	// ErrExists marks duplicate registrations (spec or execution ids
	// already taken); the HTTP layer maps it to 409 Conflict.
	ErrExists = errors.New("already exists")
)

// shard is the unit of isolation: everything the repository knows about
// one specification, behind one lock. Spec, hierarchy, search table and
// policy are immutable once published; executions are append-only.
type shard struct {
	mu     sync.RWMutex
	spec   *workflow.Spec
	hier   *workflow.Hierarchy
	policy *privacy.Policy
	execs  map[string]*exec.Execution

	// table holds the spec's module terms, postings and hierarchy
	// chains for keyword search, built with the shard. It does not
	// depend on the policy, so UpdatePolicy keeps it.
	table *search.Table

	// viewStore, when non-nil, holds pre-collapsed, pre-masked views of
	// executions at the materialized levels (Section 4's materialized-
	// views direction); Provenance consults it before collapsing on the
	// fly.
	viewStore *index.ViewStore

	// hierarchies holds optional generalization ladders used by
	// data-privacy masking (values are coarsened instead of redacted).
	hierarchies map[string]*datapriv.Hierarchy

	// views holds lazily collapsed (pre-mask) execution views keyed by
	// (execID, level), deduplicated through the repository's flight
	// group. Eviction is LRU with a TTL, so overflow drops only the
	// coldest view instead of the whole cache. Masking still runs per
	// request (it is cheap and returns a copy); the expensive Collapse
	// runs once per view.
	views *index.LRU[viewCacheKey, *exec.Execution]

	// taints caches per-execution taint sets (seed + propagate over the
	// full execution, see internal/taint) keyed by (execID, polGen):
	// the set is level- and view-independent, so one analysis serves
	// every access level and every collapsed view of the execution.
	// polGen keys it exactly like the view cache, so sets computed under
	// a replaced policy are unreachable. Reads are lock-free apart from
	// the LRU's own mutex; fills go through the flight group.
	taints *index.LRU[taintCacheKey, *taint.Set]

	// masked caches fully privacy-enforced snapshots — collapsed,
	// taint-masked executions — keyed by (execID, level, polGen), so the
	// enforced read paths (evaluateQuery, Provenance) serve a shared
	// immutable execution with an atomic lookup instead of re-masking
	// per request. Snapshots are read-only by contract: exec.Execution
	// holds no hidden mutable state, EvaluatePrepared and
	// exec.Provenance only read or copy, and the -race immutability
	// tests pin that. The polGen fence plus an explicit Purge makes
	// pre-update masks unreachable after UpdatePolicy/SetGeneralization.
	masked *index.LRU[maskedCacheKey, maskedSnapshot]

	// engine is the taint/masking engine for the shard's current policy
	// and generalization hierarchies — policy-scoped, so it is built
	// once per policy change instead of once per request. Guarded by mu
	// (rebuilt by UpdatePolicy and SetGeneralization).
	engine *taint.Engine

	// polGen counts policy generations (bumped by UpdatePolicy);
	// guarded by mu. It keys the collapsed-view cache so views built
	// under a replaced policy are unreachable.
	polGen uint64

	// seq identifies the shard's last content mutation (executions,
	// hierarchies, policy) — guarded by mu — so Save can skip shards
	// unchanged since the last save to the same directory. Values come
	// from the repository-wide mutSeq counter, so a removed-and-re-added
	// spec id can never repeat a seq a previous Save recorded.
	seq uint64
}

type viewCacheKey struct {
	execID string
	level  privacy.Level
	// polGen is the shard's policy generation the view was collapsed
	// under: a fill raced by UpdatePolicy lands under the old
	// generation, where no post-update reader can hit it.
	polGen uint64
}

// taintCacheKey keys the per-shard taint-set cache. No level component:
// taint sets are level-independent (labels carry their required level
// and are filtered at apply time).
type taintCacheKey struct {
	execID string
	polGen uint64
}

// maskedCacheKey keys the per-shard masked-execution snapshot cache:
// unlike taint sets, a masked snapshot is level-specific.
type maskedCacheKey struct {
	execID string
	level  privacy.Level
	polGen uint64
}

// maskedSnapshot is one cached privacy-enforced execution plus the
// masking report recorded when it was built (replayed into the taint
// counters on every serve, like the view store's fast path) and whether
// the view is coarser than the full expansion. The execution rides
// inside a query.PreparedExec — its graph and transitive closure are
// derived once at fill time, so warm queries skip both rebuilds. pol is
// the policy the snapshot was built under: evaluation must use it, not
// a re-read of the shard's current policy, so an answer raced by
// UpdatePolicy is internally consistent with one generation (view,
// mask and module filtering all from the same policy). All of it is
// immutable and shared by every concurrent reader.
type maskedSnapshot struct {
	prep   *query.PreparedExec
	pol    *privacy.Policy
	rep    taint.Report
	zoomed bool
}

// viewCacheCap bounds the number of collapsed views retained per shard
// (the cap is generous: levels × executions); viewCacheTTL bounds their
// age so a long-idle view is rebuilt rather than pinned forever.
const (
	viewCacheCap = 1024
	viewCacheTTL = 10 * time.Minute
)

// Repository is a concurrency-safe, per-spec-sharded store of specs,
// executions, policies and users, with privacy-aware search and query
// entry points.
type Repository struct {
	mu        sync.RWMutex
	shards    map[string]*shard
	matLevels []privacy.Level // non-nil once materialization is enabled

	usersMu sync.RWMutex
	users   map[string]*privacy.User

	// inverted and reach are shared across shards (one physical index
	// serving every privilege level is the paper's point). Both publish
	// immutable snapshots internally: lookups are lock-free, mutations
	// serialize inside the index.
	inverted *index.Inverted
	reach    *index.ReachIndex

	cache atomic.Pointer[index.Cache]

	// corpora caches the per-level visible TF-IDF corpus; corpusGen
	// fences singleflight fills against concurrent mutation (a delta or
	// invalidation bumps it, so a raced fill is discarded).
	corpusMu  sync.RWMutex
	corpora   map[privacy.Level]*rank.Corpus
	corpusGen uint64

	// corpusDeltas counts incremental AddDoc/RemoveDoc applications;
	// corpusRebuilds counts from-scratch per-level corpus builds.
	corpusDeltas   atomic.Int64 //provlint:counter
	corpusRebuilds atomic.Int64 //provlint:counter

	// cacheHitsBase/cacheMissesBase accumulate the counters of retired
	// result caches (resetResultCache swaps the cache object), and
	// viewHitsBase/viewMissesBase those of removed shards' view caches,
	// keeping the *_total metrics monotonic. taintHitsBase/
	// taintMissesBase do the same for removed shards' taint-set caches,
	// maskedHitsBase/maskedMissesBase for their masked-snapshot caches.
	cacheHitsBase    atomic.Int64 //provlint:counter
	cacheMissesBase  atomic.Int64 //provlint:counter
	viewHitsBase     atomic.Int64 //provlint:counter
	viewMissesBase   atomic.Int64 //provlint:counter
	taintHitsBase    atomic.Int64 //provlint:counter
	taintMissesBase  atomic.Int64 //provlint:counter
	maskedHitsBase   atomic.Int64 //provlint:counter
	maskedMissesBase atomic.Int64 //provlint:counter

	// taintRewritten/taintRedacted count items the taint engine
	// rewrote / fully redacted across all read-path masking (provenance
	// and structural-query responses) — the new-subsystem health
	// counters exported as taint_items_*_total.
	taintRewritten atomic.Int64 //provlint:counter
	taintRedacted  atomic.Int64 //provlint:counter

	// saveMu guards bound, the repository's attachment to a storage
	// backend with its incremental-save bookkeeping (see persist.go).
	// mutSeq issues globally unique shard seq values.
	saveMu sync.Mutex
	bound  *boundStore
	mutSeq atomic.Uint64

	// polMu serializes the policy-sensitive mutators (AddSpec,
	// RemoveSpec, UpdatePolicy, EnableMaterialization) against each
	// other, so an
	// in-flight policy update can neither interleave with another, nor
	// re-register the segment of a spec a concurrent RemoveSpec just
	// dropped, nor be overwritten by a materialization pass built under
	// the policy it replaces. Lock order: polMu before mu.
	polMu sync.Mutex

	flights flightGroup

	// workers bounds the fan-out pool shared by all multi-spec
	// operations on this repository.
	workers int
	sem     chan struct{}
}

// resultCacheCap bounds the shared per-group search result cache.
const resultCacheCap = 256

// resetResultCache swaps in a fresh, empty result cache (cached search
// hits may mention mutated specs, so every corpus-visible mutation
// drops it).
func (r *Repository) resetResultCache() {
	cache, _ := index.NewCache(resultCacheCap)
	if old := r.cache.Swap(cache); old != nil {
		h, m := old.Stats()
		r.cacheHitsBase.Add(int64(h))
		r.cacheMissesBase.Add(int64(m))
	}
}

// New returns an empty repository with a fan-out pool sized to the
// machine.
func New() *Repository {
	r := &Repository{
		shards:   make(map[string]*shard),
		users:    make(map[string]*privacy.User),
		inverted: index.BuildInverted(nil, nil),
		corpora:  make(map[privacy.Level]*rank.Corpus),
	}
	reach, _ := index.BuildReach(nil)
	r.reach = reach
	r.resetResultCache()
	r.setWorkers(runtime.GOMAXPROCS(0))
	return r
}

// SetWorkers resizes the bounded fan-out pool (minimum 1; 1 disables
// engine-internal parallelism, the serial baseline of
// BenchmarkSearchParallel).
func (r *Repository) SetWorkers(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setWorkers(n)
}

func (r *Repository) setWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.workers = n
	r.sem = make(chan struct{}, n)
}

// fanOut runs fn(0..n-1), spreading calls over the repository's bounded
// worker pool. When the pool is saturated the caller runs the task
// inline, so fanOut never deadlocks under nesting and never queues
// unboundedly. Results must be written to index-addressed slots by fn;
// completion order is unspecified, slot order is deterministic.
func (r *Repository) fanOut(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	r.mu.RLock()
	sem := r.sem
	workers := r.workers
	r.mu.RUnlock()
	if n == 1 || workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				fn(i)
			}(i)
		default:
			fn(i)
		}
	}
	wg.Wait()
}

// shard returns the shard for a spec id, or nil.
func (r *Repository) shard(specID string) *shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[specID]
}

// shardOrErr resolves a shard or reports ErrNotFound.
func (r *Repository) shardOrErr(specID string) (*shard, error) {
	sh := r.shard(specID)
	if sh == nil {
		return nil, fmt.Errorf("repo: unknown spec %q: %w", specID, ErrNotFound)
	}
	return sh, nil
}

// snapshotShards returns the shards in sorted spec-id order.
func (r *Repository) snapshotShards() []*shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.shards))
	for id := range r.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*shard, len(ids))
	for i, id := range ids {
		out[i] = r.shards[id]
	}
	return out
}

// AddSpec registers a validated spec with its policy (nil for an
// all-public policy). Indexes are updated incrementally; the shard is
// published only after its index entries exist, so readers never see a
// searchable spec they cannot resolve.
func (r *Repository) AddSpec(s *workflow.Spec, pol *privacy.Policy) error {
	sh, pol, err := r.newShard(s, pol)
	if err != nil {
		return err
	}
	// Serialize against the other mutators (RemoveSpec, UpdatePolicy,
	// EnableMaterialization): with polMu held, the duplicate check below
	// is authoritative, the index entries this call publishes cannot be
	// clobbered by a racing duplicate's rollback, and the corpus delta
	// cannot land after a newer policy's rebuild. Readers never take
	// polMu, so mutation work here stalls no read path.
	r.polMu.Lock()
	defer r.polMu.Unlock()
	if r.shard(s.ID) != nil {
		return fmt.Errorf("repo: spec %s already registered: %w", s.ID, ErrExists)
	}
	// Heavy incremental index maintenance runs outside the directory
	// lock: both indexes serialize writers internally and publish atomic
	// snapshots, so readers on other specs are never stalled. A hit on
	// the not-yet-published shard resolves to nil and is skipped, the
	// same transient Search already tolerates for removal.
	r.inverted.AddSpec(s, pol)
	if err := r.reach.AddSpec(s); err != nil {
		r.inverted.RemoveSpec(s.ID)
		return err
	}
	r.mu.Lock()
	if r.matLevels != nil {
		vs := index.NewViewStore()
		// A fresh shard has no generalization ladders yet;
		// SetGeneralization rebuilds the view store when they arrive.
		if err := vs.RegisterSpec(s, pol, nil, r.matLevels); err != nil {
			r.mu.Unlock()
			r.inverted.RemoveSpec(s.ID)
			r.reach.RemoveSpec(s.ID)
			return err
		}
		sh.viewStore = vs
	}
	r.shards[s.ID] = sh
	r.mu.Unlock()
	// Corpus deltas after the directory lock (still under polMu): the
	// corpusGen fence discards any rebuild raced by this mutation, and
	// AddDoc is an idempotent replace if such a rebuild already picked
	// the spec up.
	r.applyCorpusDelta(func(level privacy.Level, c *rank.Corpus) {
		c.AddDoc(s.ID, visibleSpecTerms(s, pol, level))
	})
	return nil
}

// newShard validates a spec + policy pair (nil policy = all-public) and
// constructs its shard, without registering anything.
func (r *Repository) newShard(s *workflow.Spec, pol *privacy.Policy) (*shard, *privacy.Policy, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		return nil, nil, err
	}
	if pol == nil {
		pol = privacy.NewPolicy(s.ID)
	}
	if err := pol.Validate(s); err != nil {
		return nil, nil, err
	}
	return &shard{
		spec:   s,
		hier:   h,
		policy: pol,
		execs:  make(map[string]*exec.Execution),
		table:  search.NewTable(s, h),
		views:  index.NewLRU[viewCacheKey, *exec.Execution](viewCacheCap, viewCacheTTL),
		taints: index.NewLRU[taintCacheKey, *taint.Set](viewCacheCap, viewCacheTTL),
		masked: index.NewLRU[maskedCacheKey, maskedSnapshot](viewCacheCap, viewCacheTTL),
		engine: datapriv.NewMasker(pol, nil).Engine(),
		seq:    r.mutSeq.Add(1),
	}, pol, nil
}

// loadSpec registers a validated spec shard without touching the shared
// indexes or corpora — the bulk-load path: Load registers every spec
// first and then builds each index once, avoiding the per-spec snapshot
// copy that would make a large load quadratic. Only valid on a private,
// not-yet-shared repository.
func (r *Repository) loadSpec(s *workflow.Spec, pol *privacy.Policy) error {
	sh, _, err := r.newShard(s, pol)
	if err != nil {
		return err
	}
	if _, dup := r.shards[s.ID]; dup {
		return fmt.Errorf("repo: spec %s already registered: %w", s.ID, ErrExists)
	}
	r.shards[s.ID] = sh
	return nil
}

// invalidateDerived resets the lazily built per-level corpora and the
// result cache. This is the full-rebuild fallback, reserved for
// mutations that can reclassify what a level sees (policy updates);
// plain spec add/remove goes through applyCorpusDelta instead.
func (r *Repository) invalidateDerived() {
	r.corpusMu.Lock()
	r.corpora = make(map[privacy.Level]*rank.Corpus)
	r.corpusGen++
	r.corpusMu.Unlock()
	r.resetResultCache()
}

// applyCorpusDelta incrementally maintains every already-built per-level
// corpus through fn (an AddDoc or RemoveDoc of one spec), bumping the
// generation counter so any in-flight from-scratch build is discarded
// rather than overwriting the delta'd corpus with a stale one. The
// result cache is still swapped out — cached search hits may mention the
// mutated spec — but corpora no longer rebuild from scratch, so the cost
// of a mutation scales with the mutated spec, not the repository.
func (r *Repository) applyCorpusDelta(fn func(privacy.Level, *rank.Corpus)) {
	r.corpusMu.Lock()
	r.corpusGen++
	for level, c := range r.corpora {
		fn(level, c)
		r.corpusDeltas.Add(1)
	}
	r.corpusMu.Unlock()
	r.resetResultCache()
}

// visibleSpecTerms extracts the normalized keyword terms of the spec's
// modules visible at level — the document the per-level corpus holds for
// this spec.
func visibleSpecTerms(s *workflow.Spec, pol *privacy.Policy, level privacy.Level) []string {
	var terms []string
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if pol != nil && !pol.CanSeeModule(level, m.ID) {
				continue
			}
			terms = append(terms, search.ModuleTerms(m)...)
		}
	}
	return terms
}

// SpecIDs returns the registered spec ids, sorted.
func (r *Repository) SpecIDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.shards))
	for id := range r.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Spec returns a registered spec, or nil.
func (r *Repository) Spec(id string) *workflow.Spec {
	sh := r.shard(id)
	if sh == nil {
		return nil
	}
	return sh.spec
}

// Policy returns the policy of a spec, or nil.
func (r *Repository) Policy(specID string) *privacy.Policy {
	sh := r.shard(specID)
	if sh == nil {
		return nil
	}
	return sh.policySnapshot()
}

// execution returns one stored execution (nil when absent); used by
// white-box tests.
func (r *Repository) execution(specID, execID string) *exec.Execution {
	sh := r.shard(specID)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.execs[execID]
}

// AddExecution stores a validated execution of a registered spec. Only
// that spec's shard is locked: ingest on one spec never stalls queries
// on others.
func (r *Repository) AddExecution(e *exec.Execution) error {
	if err := e.Validate(); err != nil {
		return err
	}
	sh := r.shard(e.SpecID)
	if sh == nil {
		return fmt.Errorf("repo: execution %s references unknown spec %s: %w", e.ID, e.SpecID, ErrNotFound)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.execs[e.ID]; dup {
		return fmt.Errorf("repo: execution %s already registered: %w", e.ID, ErrExists)
	}
	sh.execs[e.ID] = e
	if sh.viewStore != nil {
		if err := sh.viewStore.Materialize(e); err != nil {
			delete(sh.execs, e.ID)
			return fmt.Errorf("repo: materialize views: %w", err)
		}
	}
	sh.seq = r.mutSeq.Add(1)
	return nil
}

// EnableMaterialization turns on materialized privacy views at the
// given access levels: every registered and future execution gets one
// pre-collapsed, pre-masked copy per level, and Provenance serves from
// them. Trades memory for per-query collapse cost (bench
// BenchmarkMaterializedViews). Shards are rebuilt in parallel on the
// fan-out pool, in two phases so a build failure installs nothing: all
// view stores are constructed first, and only when every shard
// succeeded are they published (catching up on executions ingested
// while building).
func (r *Repository) EnableMaterialization(levels []privacy.Level) error {
	// Serialize against UpdatePolicy/RemoveSpec: views built here must
	// reflect the policies in place when they are installed.
	r.polMu.Lock()
	defer r.polMu.Unlock()
	shards := r.snapshotShards()
	built := make([]*index.ViewStore, len(shards))
	covered := make([]map[string]bool, len(shards))
	errs := make([]error, len(shards))
	r.fanOut(len(shards), func(i int) {
		built[i], covered[i], errs[i] = shards[i].buildViews(levels)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// Publish: future AddSpec materializes from here on; installViews
	// re-diffs each shard's executions under its write lock, so nothing
	// ingested during the build phase is missed.
	r.mu.Lock()
	r.matLevels = append([]privacy.Level(nil), levels...)
	r.mu.Unlock()
	for i, sh := range shards {
		errs[i] = sh.installViews(built[i], covered[i])
	}
	return errors.Join(errs...)
}

// buildViews constructs (without installing) a view store covering the
// shard's current executions, returning the execution ids it covers.
func (sh *shard) buildViews(levels []privacy.Level) (*index.ViewStore, map[string]bool, error) {
	sh.mu.RLock()
	execs := make([]*exec.Execution, 0, len(sh.execs))
	for _, e := range sh.execs {
		execs = append(execs, e)
	}
	spec, pol, hs := sh.spec, sh.policy, sh.hierarchies
	sh.mu.RUnlock()
	vs := index.NewViewStore()
	if err := vs.RegisterSpec(spec, pol, hs, levels); err != nil {
		return nil, nil, err
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i].ID < execs[j].ID })
	covered := make(map[string]bool, len(execs))
	for _, e := range execs {
		if err := vs.Materialize(e); err != nil {
			return nil, nil, err
		}
		covered[e.ID] = true
	}
	return vs, covered, nil
}

// installViews publishes a built view store, first materializing any
// executions ingested since buildViews snapshotted the shard.
func (sh *shard) installViews(vs *index.ViewStore, covered map[string]bool) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for id, e := range sh.execs {
		if !covered[id] {
			if err := vs.Materialize(e); err != nil {
				return err
			}
		}
	}
	sh.viewStore = vs
	return nil
}

// RemoveSpec unregisters a spec, its policy, its executions and its
// index entries. Queries against it fail afterwards. Once RemoveSpec
// returns, the index snapshots without the spec's postings are
// published: no subsequent Lookup or Search can serve a stale posting
// for it.
func (r *Repository) RemoveSpec(specID string) error {
	r.polMu.Lock()
	defer r.polMu.Unlock()
	r.mu.Lock()
	sh := r.shards[specID]
	if sh == nil {
		r.mu.Unlock()
		return fmt.Errorf("repo: unknown spec %q: %w", specID, ErrNotFound)
	}
	if sh.views != nil {
		h, m := sh.views.Stats()
		r.viewHitsBase.Add(h)
		r.viewMissesBase.Add(m)
	}
	if sh.taints != nil {
		h, m := sh.taints.Stats()
		r.taintHitsBase.Add(h)
		r.taintMissesBase.Add(m)
	}
	if sh.masked != nil {
		h, m := sh.masked.Stats()
		r.maskedHitsBase.Add(h)
		r.maskedMissesBase.Add(m)
	}
	delete(r.shards, specID)
	r.mu.Unlock()
	// Index swaps and corpus deltas run outside the directory lock so
	// readers on other specs never stall; polMu still fences this
	// against UpdatePolicy re-registering the segment.
	r.inverted.RemoveSpec(specID)
	r.reach.RemoveSpec(specID)
	r.applyCorpusDelta(func(level privacy.Level, c *rank.Corpus) {
		c.RemoveDoc(specID)
	})
	return nil
}

// UpdatePolicy replaces a spec's privacy policy. Because a policy change
// can reclassify which levels see which modules, this is the one
// mutation that cannot be delta-maintained: the spec's index segment is
// rebuilt with the new levels and every derived per-level corpus is
// invalidated for a from-scratch rebuild (the fallback applyCorpusDelta
// avoids). Materialized views and collapsed-view caches of the shard are
// rebuilt/dropped for the same reason.
//
// All heavy work (re-materializing the shard's executions) happens
// before anything is installed, holding no repository-wide lock, so a
// failure leaves the old policy, views and indexes fully in place and
// traffic on other specs never stalls.
func (r *Repository) UpdatePolicy(specID string, pol *privacy.Policy) error {
	r.polMu.Lock()
	defer r.polMu.Unlock()
	r.mu.RLock()
	sh := r.shards[specID]
	matLevels := r.matLevels
	r.mu.RUnlock()
	if sh == nil {
		return fmt.Errorf("repo: unknown spec %q: %w", specID, ErrNotFound)
	}
	s := sh.spec // immutable once published
	if pol == nil {
		pol = privacy.NewPolicy(specID)
	}
	if err := pol.Validate(s); err != nil {
		return err
	}
	// Phase 1 — build: construct the replacement view store (when
	// materialization is on) over a snapshot of the shard's executions.
	var vs *index.ViewStore
	var covered map[string]bool
	if matLevels != nil {
		sh.mu.RLock()
		hs := sh.hierarchies
		execs := make([]*exec.Execution, 0, len(sh.execs))
		for _, e := range sh.execs {
			execs = append(execs, e)
		}
		sh.mu.RUnlock()
		vs = index.NewViewStore()
		if err := vs.RegisterSpec(s, pol, hs, matLevels); err != nil {
			return err
		}
		sort.Slice(execs, func(i, j int) bool { return execs[i].ID < execs[j].ID })
		covered = make(map[string]bool, len(execs))
		for _, e := range execs {
			if err := vs.Materialize(e); err != nil {
				return err
			}
			covered[e.ID] = true
		}
	}
	// Phase 2 — install: re-register the spec's index segment with the
	// new module levels (the index replaces postings atomically), then
	// publish policy and views under the shard lock, catching up on
	// executions ingested during the build. The window between the index
	// swap and the policy install is benign: both old and new state are
	// internally consistent, and invalidateDerived below rebuilds the
	// corpora against the final policy.
	oldPol := sh.policySnapshot()
	r.inverted.AddSpec(s, pol)
	sh.mu.Lock()
	if vs != nil {
		for id, e := range sh.execs {
			if !covered[id] {
				if err := vs.Materialize(e); err != nil {
					sh.mu.Unlock()
					r.inverted.AddSpec(s, oldPol) // roll the segment back
					// Searches raced into the new-segment window may have
					// cached results computed from it; drop them.
					r.invalidateDerived()
					return err
				}
			}
		}
		sh.viewStore = vs
	}
	sh.policy = pol
	sh.engine = datapriv.NewMasker(pol, sh.hierarchies).Engine()
	sh.polGen++       // old-generation cache entries become unreachable
	sh.views.Purge()  // and are dropped eagerly to free memory
	sh.taints.Purge() // taint sets seeded under the old policy likewise
	sh.masked.Purge() // no pre-update masked snapshot may survive
	sh.seq = r.mutSeq.Add(1)
	sh.mu.Unlock()
	r.invalidateDerived()
	return nil
}

// policySnapshot reads the shard's current policy under its lock (the
// policy pointer is mutable via UpdatePolicy; spec and hier are not).
func (sh *shard) policySnapshot() *privacy.Policy {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.policy
}

// SetGeneralization installs generalization hierarchies for a spec's
// protected attributes: masking then coarsens values (e.g. exact SNP →
// chromosome → genome) instead of redacting them outright, preserving
// utility for under-privileged users. When materialized views are
// enabled, the shard's view store is rebuilt under the new ladders —
// the views must generalize exactly like the snapshot path (the
// masking-parity contract) — so calling this before or after
// materialization is equally safe.
func (r *Repository) SetGeneralization(specID string, hs map[string]*datapriv.Hierarchy) error {
	// Serialize against the other policy-sensitive mutators: the view
	// store rebuilt below must reflect exactly one (policy, ladder)
	// pair, and EnableMaterialization must not install views built
	// under the ladders this call replaces.
	r.polMu.Lock()
	defer r.polMu.Unlock()
	sh, err := r.shardOrErr(specID)
	if err != nil {
		return err
	}
	r.mu.RLock()
	matLevels := r.matLevels
	r.mu.RUnlock()
	// Phase 1 — build: when materialization is on, re-materialize the
	// shard's views under the new ladders, outside the shard lock.
	var vs *index.ViewStore
	var covered map[string]bool
	if matLevels != nil {
		sh.mu.RLock()
		spec, pol := sh.spec, sh.policy
		execs := make([]*exec.Execution, 0, len(sh.execs))
		for _, e := range sh.execs {
			execs = append(execs, e)
		}
		sh.mu.RUnlock()
		vs = index.NewViewStore()
		if err := vs.RegisterSpec(spec, pol, hs, matLevels); err != nil {
			return err
		}
		sort.Slice(execs, func(i, j int) bool { return execs[i].ID < execs[j].ID })
		covered = make(map[string]bool, len(execs))
		for _, e := range execs {
			if err := vs.Materialize(e); err != nil {
				return err
			}
			covered[e.ID] = true
		}
	}
	// Phase 2 — install under the shard lock, catching up on executions
	// ingested during the build. A failure installs nothing: the old
	// ladders, engine and views stay fully in place.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if vs != nil {
		for id, e := range sh.execs {
			if !covered[id] {
				if err := vs.Materialize(e); err != nil {
					return err
				}
			}
		}
		sh.viewStore = vs
	}
	sh.hierarchies = hs
	sh.engine = datapriv.NewMasker(sh.policy, hs).Engine()
	// Hierarchies change what masking emits, so cached masked snapshots
	// are stale; bump the generation fence (making any in-flight fill
	// under the old engine unreachable) and drop all derived caches.
	// Collapsed views and taint sets do not depend on hierarchies, but
	// this mutation is rare and correctness beats the rebuild cost.
	sh.polGen++
	sh.views.Purge()
	sh.taints.Purge()
	sh.masked.Purge()
	sh.seq = r.mutSeq.Add(1)
	return nil
}

// ExecutionIDs lists executions of a spec, sorted.
func (r *Repository) ExecutionIDs(specID string) []string {
	sh := r.shard(specID)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ids := make([]string, 0, len(sh.execs))
	for id := range sh.execs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// AddUser registers (or replaces) a user.
func (r *Repository) AddUser(u privacy.User) {
	r.usersMu.Lock()
	defer r.usersMu.Unlock()
	cp := u
	r.users[u.Name] = &cp
}

// User looks up a registered user.
func (r *Repository) User(name string) (*privacy.User, error) {
	r.usersMu.RLock()
	defer r.usersMu.RUnlock()
	u := r.users[name]
	if u == nil {
		return nil, fmt.Errorf("repo: unknown user %q: %w", name, ErrUnknownUser)
	}
	cp := *u
	return &cp, nil
}

// Users returns the registered users, sorted by name.
func (r *Repository) Users() []privacy.User {
	r.usersMu.RLock()
	defer r.usersMu.RUnlock()
	names := make([]string, 0, len(r.users))
	for n := range r.users {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]privacy.User, len(names))
	for i, n := range names {
		out[i] = *r.users[n]
	}
	return out
}

// corpusFor lazily builds the TF-IDF corpus visible at a level: each
// spec is a document whose terms come only from modules the level may
// see (module privacy) — the leak-free "visible-only scoring" mode.
// Concurrent requests for the same level are deduplicated through the
// flight group, so one goroutine builds while the rest wait; a
// generation fence discards fills raced by an invalidation.
func (r *Repository) corpusFor(level privacy.Level) *rank.Corpus {
	r.corpusMu.RLock()
	c := r.corpora[level]
	r.corpusMu.RUnlock()
	if c != nil {
		return c
	}
	v, _ := r.flights.Do(fmt.Sprintf("corpus|%d", int(level)), func() (any, error) {
		r.corpusMu.RLock()
		if c := r.corpora[level]; c != nil {
			r.corpusMu.RUnlock()
			return c, nil
		}
		gen := r.corpusGen
		r.corpusMu.RUnlock()
		c := r.buildCorpus(level)
		r.corpusMu.Lock()
		if r.corpusGen == gen {
			r.corpora[level] = c
		}
		r.corpusMu.Unlock()
		return c, nil
	})
	return v.(*rank.Corpus)
}

func (r *Repository) buildCorpus(level privacy.Level) *rank.Corpus {
	r.corpusRebuilds.Add(1)
	c := rank.NewCorpus()
	for _, sh := range r.snapshotShards() {
		sh.mu.RLock()
		s, pol := sh.spec, sh.policy
		sh.mu.RUnlock()
		c.Add(s.ID, visibleSpecTerms(s, pol, level))
	}
	return c
}

// SearchHit is one ranked repository search result.
type SearchHit struct {
	SpecID string
	Score  float64
	Result *search.Result
}

// SearchOptions tunes repository search.
type SearchOptions struct {
	// Buckets > 0 publishes bucketized scores (privacy-aware ranking).
	Buckets int
	// BypassCache disables the per-group result cache.
	BypassCache bool
	// Limit/Offset window the ranked result list engine-side: only the
	// specs inside [Offset, Offset+Limit) get their minimal view built;
	// the rest are counted with the cheap Table.Matches predicate.
	// Limit 0 means unlimited (full materialization).
	Limit, Offset int
}

// Search runs a keyword query as the given user: candidate specs come
// from the privacy-classified inverted index, each is answered with its
// minimal view clipped to the user's access view, and results are
// ranked by TF-IDF over the level's visible corpus. Candidate specs are
// evaluated concurrently on the fan-out pool; the merge is
// deterministic (score descending, spec id ascending). Limit/Offset in
// opts are ignored — Search always returns the full list; windowed
// callers use SearchPage.
func (r *Repository) Search(userName, queryText string, opts SearchOptions) ([]SearchHit, error) {
	opts.Limit, opts.Offset = 0, 0
	hits, _, err := r.SearchPage(userName, queryText, opts)
	return hits, err
}

// pagedHits is the result-cache value of SearchPage: one window plus
// the pre-pagination total.
type pagedHits struct {
	hits  []SearchHit
	total int
}

// SearchPage is Search with the pagination window pushed into the
// engine. The ranked order of the full result list is known before any
// view is built (corpus scores are per spec, ties break on spec id), so
// the engine sorts the candidates first, counts the matching ones with
// the shard's search.Table — a posting-list walk, no hierarchy walk,
// no view expansion — and runs the expensive minimal-view search only for
// the candidates inside [Offset, Offset+Limit). A deep repository
// therefore pays per page, not per hit; total is still exact
// (TestMatchesAgreesWithSearch pins predicate/search equivalence, and
// TestSearchPageTilesFullSearch pins the tiling end-to-end).
func (r *Repository) SearchPage(userName, queryText string, opts SearchOptions) ([]SearchHit, int, error) {
	return r.SearchPageCtx(context.Background(), userName, queryText, opts)
}

// SearchPageCtx is SearchPage threaded with a context: the fan-out
// phases check ctx between shards and abandon the search early when the
// caller is gone (a disconnected HTTP client), instead of burning the
// worker pool on a result nobody reads. A canceled search returns ctx's
// error and caches nothing.
func (r *Repository) SearchPageCtx(ctx context.Context, userName, queryText string, opts SearchOptions) ([]SearchHit, int, error) {
	u, err := r.User(userName)
	if err != nil {
		return nil, 0, err
	}
	phrases := search.ParseQuery(queryText)
	if len(phrases) == 0 {
		return nil, 0, fmt.Errorf("repo: empty query")
	}
	if opts.Limit < 0 || opts.Offset < 0 {
		return nil, 0, fmt.Errorf("repo: negative pagination window")
	}

	// %q-quote the caller-controlled query so a '|' inside it cannot
	// collide with another (query, buckets, window) triple's key.
	cacheKey := fmt.Sprintf("search|%q|%d|%d|%d", queryText, opts.Buckets, opts.Limit, opts.Offset)
	cache := r.cache.Load()
	if !opts.BypassCache {
		if v, ok := cache.Get(u.Group, cacheKey); ok {
			p := v.(pagedHits)
			return p.hits, p.total, nil
		}
	}

	// Candidate specs: any spec with a visible posting for the first
	// term of some phrase. Lookup reads the index's published snapshot —
	// no lock — so concurrent spec mutations never stall the search path.
	candidateSet := make(map[string]bool)
	for _, phrase := range phrases {
		for _, p := range r.inverted.Lookup(phrase[0], u.Level) {
			candidateSet[p.SpecID] = true
		}
	}
	candidates := make([]string, 0, len(candidateSet))
	for sid := range candidateSet {
		candidates = append(candidates, sid)
	}

	corpus := r.corpusFor(u.Level)
	var flat []string
	for _, phrase := range phrases {
		flat = append(flat, phrase...)
	}
	ranked := corpus.Rank(flat)
	if opts.Buckets > 0 {
		ranked = rank.Bucketize(ranked, opts.Buckets)
	}
	scoreOf := make(map[string]float64, len(ranked))
	for _, rk := range ranked {
		scoreOf[rk.Doc] = rk.Score
	}

	// Rank the candidates up front, in exactly the final hit order
	// (score descending, spec id ascending): evaluation can then window
	// by position without materializing anything outside the window.
	sort.Slice(candidates, func(i, j int) bool {
		si, sj := scoreOf[candidates[i]], scoreOf[candidates[j]]
		if si != sj {
			return si > sj
		}
		return candidates[i] < candidates[j]
	})

	// Which ranked candidates actually match, via the cheap predicate.
	// A shard removed since the index lookup counts as a non-match, the
	// same transient the full path already tolerates.
	matched := make([]bool, len(candidates))
	_, matchSpan := obs.StartSpan(ctx, "search.fanout.match")
	r.fanOut(len(candidates), func(i int) {
		if ctx.Err() != nil {
			return // caller gone: stop scanning, the ctx check below reports
		}
		sh := r.shard(candidates[i])
		if sh == nil {
			return
		}
		sh.mu.RLock()
		tab, pol := sh.table, sh.policy
		sh.mu.RUnlock()
		matched[i] = tab.Matches(phrases, pol, u.Level)
	})
	matchSpan.End()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	window := make([]string, 0, len(candidates))
	total := 0
	for i, sid := range candidates {
		if !matched[i] {
			continue
		}
		total++
		if total-1 < opts.Offset {
			continue
		}
		if opts.Limit > 0 && len(window) >= opts.Limit {
			continue // beyond the window: counted, never materialized
		}
		window = append(window, sid)
	}

	// Materialize minimal views for the window only, on the fan-out
	// pool; slot i belongs to window[i], so order survives the merge.
	slots := make([]*SearchHit, len(window))
	_, viewSpan := obs.StartSpan(ctx, "search.fanout.views")
	r.fanOut(len(window), func(i int) {
		if ctx.Err() != nil {
			return
		}
		sid := window[i]
		sh := r.shard(sid)
		if sh == nil {
			return // removed since the predicate pass
		}
		sh.mu.RLock()
		tab, pol, hier := sh.table, sh.policy, sh.hier
		sh.mu.RUnlock()
		access := pol.AccessView(hier, u.Level)
		res, err := tab.SearchWithAccess(phrases, access, pol, u.Level)
		if err != nil {
			return // predicate raced a mutation; drop the hit
		}
		slots[i] = &SearchHit{SpecID: sid, Score: scoreOf[sid], Result: res}
	})
	viewSpan.End()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	hits := make([]SearchHit, 0, len(window))
	for _, h := range slots {
		if h != nil {
			hits = append(hits, *h)
		}
	}
	if !opts.BypassCache {
		cache.Put(u.Group, cacheKey, pagedHits{hits: hits, total: total})
	}
	return hits, total, nil
}

// CacheStats exposes cumulative result-cache hit/miss counters
// (monotonic across the cache swaps every mutation performs).
func (r *Repository) CacheStats() (hits, misses int) {
	h, m := r.cache.Load().Stats()
	return h + int(r.cacheHitsBase.Load()), m + int(r.cacheMissesBase.Load())
}

// queryContext resolves the common (user, shard, execution) triple of
// the per-execution query paths.
func (r *Repository) queryContext(userName, specID, execID string) (*privacy.User, *shard, *exec.Execution, error) {
	u, err := r.User(userName)
	if err != nil {
		return nil, nil, nil, err
	}
	sh, err := r.shardOrErr(specID)
	if err != nil {
		return nil, nil, nil, err
	}
	sh.mu.RLock()
	e := sh.execs[execID]
	sh.mu.RUnlock()
	if e == nil {
		return nil, nil, nil, fmt.Errorf("repo: unknown execution %q of %s: %w", execID, specID, ErrNotFound)
	}
	return u, sh, e, nil
}

// maskedExecFor returns the fully privacy-enforced snapshot of an
// execution at a level — collapsed to the access view and taint-masked —
// serving from the shard's masked-snapshot cache. On miss the snapshot
// is built once under the flight group (collapsed view and taint set
// each come from their own caches) and published for every subsequent
// reader; the returned execution is shared and MUST be treated as
// read-only. The masking report is the one recorded at build time,
// replayed by callers into the serving counters.
func (r *Repository) maskedExecFor(ctx context.Context, sh *shard, e *exec.Execution, level privacy.Level) (maskedSnapshot, error) {
	sh.mu.RLock()
	pol := sh.policy
	en := sh.engine
	polGen := sh.polGen
	sh.mu.RUnlock()
	key := maskedCacheKey{execID: e.ID, level: level, polGen: polGen}
	if snap, ok := sh.masked.Get(key); ok {
		return snap, nil
	}
	// Spec and execution ids are wire-writable since the mutation API:
	// %q-quote them so an embedded '|' cannot make two different
	// (spec, exec) pairs share a singleflight key and leak one shard's
	// snapshot to another's reader.
	got, err := r.flights.Do(fmt.Sprintf("masked|%q|%q|%d|%d", sh.spec.ID, e.ID, int(level), polGen), func() (any, error) {
		if snap, ok := sh.masked.Peek(key); ok {
			return snap, nil
		}
		// The flight closure runs once for all concurrent callers; the
		// fill spans land on the trace of the caller that paid for it.
		fctx, fill := obs.StartSpan(ctx, "cache.masked_fill")
		defer fill.End()
		access := pol.AccessView(sh.hier, level)
		view, err := r.collapsedView(fctx, sh, e, level, access, polGen)
		if err != nil {
			return maskedSnapshot{}, err
		}
		set := r.taintSetFor(fctx, sh, e, en, polGen)
		_, apply := obs.StartSpan(fctx, "mask.apply")
		masked, rep := en.Apply(view, level, set)
		prep, err := query.PrepareExec(masked)
		apply.End()
		if err != nil {
			return maskedSnapshot{}, err
		}
		snap := maskedSnapshot{prep: prep, pol: pol, rep: rep, zoomed: len(access) < len(sh.hier.All())}
		sh.masked.Put(key, snap)
		return snap, nil
	})
	if err != nil {
		return maskedSnapshot{}, err
	}
	return got.(maskedSnapshot), nil
}

// evaluateQuery runs one parsed structural query against one execution
// under the user's privacy constraints, serving the execution from the
// masked-snapshot cache: a warm query allocates nothing for privacy
// enforcement (no masker, no deep copy, no rewrite pass) — only the
// evaluation itself.
func (r *Repository) evaluateQuery(ctx context.Context, sh *shard, e *exec.Execution, q *query.Query, level privacy.Level) (*query.Answer, error) {
	snap, err := r.maskedExecFor(ctx, sh, e, level)
	if err != nil {
		return nil, err
	}
	r.countTaint(snap.rep)
	ev := query.NewEvaluator(sh.spec)
	return ev.EvaluateOn(q, snap.prep, snap.pol, level, snap.zoomed)
}

// Query evaluates a structural query (see query.Parse) against one
// execution under the user's privacy constraints, with taint-aware
// masking of the answer's values and provenance subgraphs.
func (r *Repository) Query(userName, specID, execID, queryText string) (*query.Answer, error) {
	q, err := query.Parse(queryText)
	if err != nil {
		return nil, err
	}
	u, sh, e, err := r.queryContext(userName, specID, execID)
	if err != nil {
		return nil, err
	}
	return r.evaluateQuery(context.Background(), sh, e, q, u.Level)
}

// Reaches answers the paper's core structural-privacy question — "does
// module from contribute to the data produced by module to?" — as
// visible to the user:
//
//   - pairs listed in the policy's Structural requirements above the
//     user's level answer false (the connection is confidential);
//   - modules invisible at the user's access view are resolved to the
//     composite module that represents them, so the answer is at the
//     granularity the user is entitled to; if both endpoints collapse
//     into the same composite, the relationship is not externally
//     visible and the answer is false.
//
// Note this is answer-time enforcement for the exact pairs; publishers
// wanting protection against multi-query inference should additionally
// transform the published view with structpriv (cut or cluster).
func (r *Repository) Reaches(userName, specID, from, to string) (bool, error) {
	u, err := r.User(userName)
	if err != nil {
		return false, err
	}
	sh, err := r.shardOrErr(specID)
	if err != nil {
		return false, err
	}
	s, pol, h := sh.spec, sh.policySnapshot(), sh.hier
	for _, hp := range pol.HiddenPairsFor(u.Level) {
		if hp.From == from && hp.To == to {
			return false, nil
		}
	}
	access := pol.AccessView(h, u.Level)
	if len(access) == len(h.All()) {
		// Full access view: answer from the precomputed full-expansion
		// closure, O(1). Composite endpoints don't appear in the full
		// expansion; fall through to the view path for those.
		mf, _ := s.FindModule(from)
		mt, _ := s.FindModule(to)
		if mf == nil {
			return false, fmt.Errorf("repo: unknown module %q: %w", from, ErrNotFound)
		}
		if mt == nil {
			return false, fmt.Errorf("repo: unknown module %q: %w", to, ErrNotFound)
		}
		if mf.Kind != workflow.Composite && mt.Kind != workflow.Composite {
			return r.reach.Reaches(specID, from, to), nil
		}
	}
	v, err := workflow.ExpandWith(s, h, access)
	if err != nil {
		return false, err
	}
	g := v.Graph()
	rf, err := visibleRepr(s, h, v, from, access)
	if err != nil {
		return false, err
	}
	rt, err := visibleRepr(s, h, v, to, access)
	if err != nil {
		return false, err
	}
	if rf == rt {
		return false, nil // inside one composite: not externally visible
	}
	return g.Reachable(g.Lookup(rf), g.Lookup(rt)), nil
}

// visibleRepr maps a module id to the module that represents it in the
// given view: itself when visible, else the via-module of its shallowest
// hidden ancestor workflow.
func visibleRepr(s *workflow.Spec, h *workflow.Hierarchy, v *workflow.View, moduleID string, access workflow.Prefix) (string, error) {
	if v.Module(moduleID) != nil {
		return moduleID, nil
	}
	m, w := s.FindModule(moduleID)
	if m == nil {
		return "", fmt.Errorf("repo: unknown module %q: %w", moduleID, ErrNotFound)
	}
	// Walk the workflow chain root..w; the first workflow outside the
	// access view is represented by its via-module.
	for _, wid := range h.Chain(w.ID) {
		if !access.Contains(wid) {
			return h.ViaModule(wid), nil
		}
	}
	return "", fmt.Errorf("repo: module %q not resolvable in view", moduleID)
}

// QueryZoomOut evaluates a structural query with the paper's gradual
// zoom-out strategy (Section 4): compute the full answer, then coarsen
// composite detail until no privacy leak remains. Steps in the result
// counts the re-evaluations — compare with the direct Query path.
func (r *Repository) QueryZoomOut(userName, specID, execID, queryText string) (*query.ZoomOutResult, error) {
	q, err := query.Parse(queryText)
	if err != nil {
		return nil, err
	}
	u, sh, e, err := r.queryContext(userName, specID, execID)
	if err != nil {
		return nil, err
	}
	ev := query.NewEvaluator(sh.spec)
	return ev.ZoomOut(q, e, sh.policySnapshot(), u.Level)
}

// QuerySpec evaluates a structural query against a specification (not
// an execution): variables bind to modules of the user's access view,
// with module privacy applied — "find workflows where Expand SNP Set
// feeds Query OMIM" without touching provenance.
func (r *Repository) QuerySpec(userName, specID, queryText string) (*query.SpecAnswer, error) {
	u, err := r.User(userName)
	if err != nil {
		return nil, err
	}
	q, err := query.Parse(queryText)
	if err != nil {
		return nil, err
	}
	sh, err := r.shardOrErr(specID)
	if err != nil {
		return nil, err
	}
	pol := sh.policySnapshot()
	access := pol.AccessView(sh.hier, u.Level)
	v, err := workflow.ExpandWith(sh.spec, sh.hier, access)
	if err != nil {
		return nil, err
	}
	return query.EvaluateSpec(q, v, pol, u.Level)
}

// QueryAll evaluates a structural query against every execution of a
// spec, returning non-empty answers in execution-id order. Executions
// are evaluated concurrently on the fan-out pool.
func (r *Repository) QueryAll(userName, specID, queryText string) ([]*query.Answer, error) {
	answers, _, err := r.QueryAllPage(userName, specID, queryText, 0, 0)
	return answers, err
}

// QueryAllPage is QueryAll with the pagination window pushed into the
// engine: the binding phase (query.MatchOn) still runs for every
// execution — the total requires knowing which executions answer — but
// the return clause (provenance / downstream sub-executions, the
// per-answer materialization cost) is built only for the answers inside
// [offset, offset+limit). limit 0 materializes everything. The returned
// total is the pre-pagination count of non-empty answers.
func (r *Repository) QueryAllPage(userName, specID, queryText string, limit, offset int) ([]*query.Answer, int, error) {
	return r.QueryAllPageCtx(context.Background(), userName, specID, queryText, limit, offset)
}

// QueryAllPageCtx is QueryAllPage threaded with a context, checked
// between executions in both fan-out phases: a disconnected client
// stops the evaluation instead of holding the pool through the
// remaining executions.
func (r *Repository) QueryAllPageCtx(ctx context.Context, userName, specID, queryText string, limit, offset int) ([]*query.Answer, int, error) {
	q, err := query.Parse(queryText)
	if err != nil {
		return nil, 0, err
	}
	if limit < 0 || offset < 0 {
		return nil, 0, fmt.Errorf("repo: negative pagination window")
	}
	u, err := r.User(userName)
	if err != nil {
		return nil, 0, err
	}
	sh, err := r.shardOrErr(specID)
	if err != nil {
		return nil, 0, err
	}
	sh.mu.RLock()
	ids := make([]string, 0, len(sh.execs))
	execs := make([]*exec.Execution, 0, len(sh.execs))
	for id := range sh.execs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		execs = append(execs, sh.execs[id])
	}
	sh.mu.RUnlock()

	// Phase 1 — bindings only, fanned out. Each evaluation snapshots the
	// policy per execution; every answer of one call may still interleave
	// with a racing UpdatePolicy, but each individual answer is
	// internally consistent (view, taint set and mask all come from one
	// policy generation).
	answers := make([]*query.Answer, len(execs))
	snaps := make([]maskedSnapshot, len(execs))
	errs := make([]error, len(execs))
	matchCtx, matchSpan := obs.StartSpan(ctx, "query.fanout.match")
	r.fanOut(len(execs), func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		snap, err := r.maskedExecFor(matchCtx, sh, execs[i], u.Level)
		if err != nil {
			errs[i] = err
			return
		}
		r.countTaint(snap.rep)
		ev := query.NewEvaluator(sh.spec)
		answers[i], errs[i] = ev.MatchOn(q, snap.prep, snap.pol, u.Level, snap.zoomed)
		snaps[i] = snap
	})
	matchSpan.End()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	var out []*query.Answer
	var prep []*query.PreparedExec
	for i, ans := range answers {
		if ans != nil && len(ans.Bindings) > 0 {
			out = append(out, ans)
			prep = append(prep, snaps[i].prep)
		}
	}
	total := len(out)
	if offset >= total {
		return nil, total, nil
	}
	out, prep = out[offset:], prep[offset:]
	if limit > 0 && limit < len(out) {
		out, prep = out[:limit], prep[:limit]
	}

	// Phase 2 — materialize return clauses for the window only.
	merrs := make([]error, len(out))
	ev := query.NewEvaluator(sh.spec)
	_, matSpan := obs.StartSpan(ctx, "query.fanout.materialize")
	r.fanOut(len(out), func(i int) {
		if err := ctx.Err(); err != nil {
			merrs[i] = err
			return
		}
		merrs[i] = ev.MaterializeReturn(q, out[i], prep[i])
	})
	matSpan.End()
	if err := errors.Join(merrs...); err != nil {
		return nil, 0, err
	}
	return out, total, nil
}

// collapsedView returns the execution collapsed to the access view of
// the given level, serving from the shard's singleflight-deduplicated
// view cache: concurrent identical requests build the view once.
func (r *Repository) collapsedView(ctx context.Context, sh *shard, e *exec.Execution, level privacy.Level, access workflow.Prefix, polGen uint64) (*exec.Execution, error) {
	key := viewCacheKey{execID: e.ID, level: level, polGen: polGen}
	if v, ok := sh.views.Get(key); ok {
		return v, nil
	}
	got, err := r.flights.Do(fmt.Sprintf("view|%q|%q|%d|%d", sh.spec.ID, e.ID, int(level), polGen), func() (any, error) {
		if v, ok := sh.views.Peek(key); ok {
			return v, nil
		}
		_, fill := obs.StartSpan(ctx, "cache.view_fill")
		defer fill.End()
		view, err := exec.Collapse(e, sh.spec, access)
		if err != nil {
			return nil, err
		}
		sh.views.Put(key, view)
		return view, nil
	})
	if err != nil {
		return nil, err
	}
	return got.(*exec.Execution), nil
}

// taintSetFor returns the cached taint analysis of an execution under
// the given policy generation, computing and caching it on miss. Fills
// are deduplicated through the flight group; the polGen key makes sets
// seeded under a replaced policy unreachable (see taintCacheKey). The
// caller passes the shard's policy-scoped engine (analysis ignores its
// generalizers), so no masker is constructed on this path.
func (r *Repository) taintSetFor(ctx context.Context, sh *shard, e *exec.Execution, en *taint.Engine, polGen uint64) *taint.Set {
	key := taintCacheKey{execID: e.ID, polGen: polGen}
	if s, ok := sh.taints.Get(key); ok {
		return s
	}
	got, _ := r.flights.Do(fmt.Sprintf("taint|%q|%q|%d", sh.spec.ID, e.ID, polGen), func() (any, error) {
		if s, ok := sh.taints.Peek(key); ok {
			return s, nil
		}
		_, span := obs.StartSpan(ctx, "taint.analyze")
		defer span.End()
		s := en.Analyze(e)
		sh.taints.Put(key, s)
		return s, nil
	})
	return got.(*taint.Set)
}

// countTaint feeds a masking report into the repository's taint
// counters (taint_items_rewritten_total / taint_items_redacted_total).
func (r *Repository) countTaint(rep datapriv.Report) {
	if rep.Rewritten > 0 {
		r.taintRewritten.Add(int64(rep.Rewritten))
	}
	if rep.TaintRedacted > 0 {
		r.taintRedacted.Add(int64(rep.TaintRedacted))
	}
}

// ProvenanceOptions tunes provenance retrieval.
type ProvenanceOptions struct {
	// DisableTaint reverts to attribute-local masking (the pre-taint
	// behavior): protected items themselves are masked, but raw values
	// embedded in derived trace strings are served verbatim. This is a
	// debugging / benchmarking escape hatch, not a privacy mode — the
	// server only honors it via an explicit taint=off parameter.
	DisableTaint bool
}

// Provenance returns the provenance of a data item as the user may see
// it: the execution is collapsed to the user's access view, values are
// masked per the data policy with taint propagation (a protected
// ancestor's raw value embedded in a derived trace is rewritten or
// redacted), and the provenance subgraph is extracted from that view.
// An item hidden by the view is reported as not visible.
func (r *Repository) Provenance(userName, specID, execID, itemID string) (*exec.Execution, error) {
	return r.ProvenanceWith(userName, specID, execID, itemID, ProvenanceOptions{})
}

// ProvenanceWith is Provenance with options.
func (r *Repository) ProvenanceWith(userName, specID, execID, itemID string, opts ProvenanceOptions) (*exec.Execution, error) {
	return r.ProvenanceWithCtx(context.Background(), userName, specID, execID, itemID, opts)
}

// ProvenanceWithCtx is ProvenanceWith threaded with a context, checked
// before the expensive enforcement work (cold masked-snapshot builds):
// a disconnected client stops the rendering early.
func (r *Repository) ProvenanceWithCtx(ctx context.Context, userName, specID, execID, itemID string, opts ProvenanceOptions) (*exec.Execution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	u, sh, e, err := r.queryContext(userName, specID, execID)
	if err != nil {
		return nil, err
	}
	sh.mu.RLock()
	pol := sh.policy
	vs := sh.viewStore
	en := sh.engine
	polGen := sh.polGen
	sh.mu.RUnlock()
	// Fast path: a materialized view at exactly this level (already
	// taint-masked — and, since the view store routes the generalization
	// ladders, generalized — identically to the snapshot path; the
	// parity tests pin the two byte-equal). Skipped only when the caller
	// asked for the untainted debug view.
	if vs != nil && !opts.DisableTaint {
		if v, rep := vs.GetWithReport(specID, execID, u.Level); v != nil {
			if v.Items[itemID] == nil {
				return nil, fmt.Errorf("repo: item %s not visible at level %s: %w", itemID, u.Level, ErrDenied)
			}
			// The view was taint-masked at materialization time; replay
			// its report so the serving counters don't flatline on the
			// fast path.
			r.countTaint(rep)
			return exec.Provenance(v, itemID)
		}
	}
	if opts.DisableTaint {
		// Debug escape hatch: attribute-local masking only, uncached (a
		// nil taint set degrades the engine) — never worth a cache slot.
		access := pol.AccessView(sh.hier, u.Level)
		view, err := r.collapsedView(ctx, sh, e, u.Level, access, polGen)
		if err != nil {
			return nil, err
		}
		if view.Items[itemID] == nil {
			return nil, fmt.Errorf("repo: item %s not visible at level %s: %w", itemID, u.Level, ErrDenied)
		}
		masked, rep := en.Apply(view, u.Level, nil)
		r.countTaint(rep)
		return exec.Provenance(masked, itemID)
	}
	// Enforced path: serve from the shared masked snapshot. Masking
	// preserves the item set of the collapsed view, so visibility is
	// checked on the snapshot itself; exec.Provenance only reads the
	// snapshot and returns a fresh induced sub-execution.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap, err := r.maskedExecFor(ctx, sh, e, u.Level)
	if err != nil {
		return nil, err
	}
	if snap.prep.Exec.Items[itemID] == nil {
		return nil, fmt.Errorf("repo: item %s not visible at level %s: %w", itemID, u.Level, ErrDenied)
	}
	r.countTaint(snap.rep)
	return exec.ProvenanceIn(snap.prep.Exec, snap.prep.Graph(), itemID)
}

// Stats summarizes repository contents and the health of its derived
// state: result-cache and view-cache hit rates, index segment/snapshot
// churn, and how corpus maintenance is being paid for (deltas vs full
// rebuilds).
type Stats struct {
	Specs      int
	Executions int
	Users      int
	IndexTerms int
	Postings   int

	// IndexSegments is the number of per-spec index segments;
	// IndexSwaps counts snapshot publications (spec mutations).
	IndexSegments int
	IndexSwaps    int64

	// CacheHits/CacheMisses are the shared result cache's counters;
	// ViewCacheHits/ViewCacheMisses aggregate the per-shard collapsed-
	// view LRUs of the currently registered shards.
	CacheHits       int
	CacheMisses     int
	ViewCacheHits   int64
	ViewCacheMisses int64

	// CorpusLevels is how many per-level corpora are currently built;
	// CorpusDeltas counts incremental document deltas applied to them,
	// CorpusRebuilds counts from-scratch builds.
	CorpusLevels   int
	CorpusDeltas   int64
	CorpusRebuilds int64

	// TaintRewritten/TaintRedacted count items the taint engine
	// rewrote / redacted on read paths; TaintCacheHits/TaintCacheMisses
	// aggregate the per-shard taint-set LRUs (monotonic across shard
	// removal via the base counters). TaintCache breaks the cache
	// counters out per live shard.
	TaintRewritten   int64
	TaintRedacted    int64
	TaintCacheHits   int64
	TaintCacheMisses int64
	TaintCache       map[string]TaintCacheStat

	// MaskedCacheHits/MaskedCacheMisses aggregate the per-shard
	// masked-snapshot LRUs, monotonic across shard removal exactly like
	// the taint counters; MaskedCache breaks them out per live shard.
	MaskedCacheHits   int64
	MaskedCacheMisses int64
	MaskedCache       map[string]TaintCacheStat
}

// TaintCacheStat is one shard's cache hit/miss counter pair (used for
// both the taint-set and masked-snapshot caches).
type TaintCacheStat struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// ContentStats is the persisted-content subset of Stats — the part a
// save/load round trip must preserve exactly (counters and cache state
// are runtime artifacts and are not persisted).
type ContentStats struct {
	Specs      int
	Executions int
	Users      int
	IndexTerms int
	Postings   int
}

// Content projects the persistent-content fields out of Stats.
func (s Stats) Content() ContentStats {
	return ContentStats{
		Specs: s.Specs, Executions: s.Executions, Users: s.Users,
		IndexTerms: s.IndexTerms, Postings: s.Postings,
	}
}

// Stats returns repository statistics.
func (r *Repository) Stats() Stats {
	st := Stats{}
	for _, sh := range r.snapshotShards() {
		sh.mu.RLock()
		st.Specs++
		st.Executions += len(sh.execs)
		sh.mu.RUnlock()
	}
	// View-cache totals are summed under the directory lock so they
	// cannot interleave with RemoveSpec banking a dying shard's counters
	// into the base (which happens under the directory write lock) —
	// otherwise a shard could be counted both live and banked, making
	// the exported counters non-monotonic.
	r.mu.RLock()
	st.TaintCache = make(map[string]TaintCacheStat, len(r.shards))
	st.MaskedCache = make(map[string]TaintCacheStat, len(r.shards))
	for id, sh := range r.shards {
		if sh.views != nil {
			h, m := sh.views.Stats()
			st.ViewCacheHits += h
			st.ViewCacheMisses += m
		}
		if sh.taints != nil {
			h, m := sh.taints.Stats()
			st.TaintCacheHits += h
			st.TaintCacheMisses += m
			st.TaintCache[id] = TaintCacheStat{Hits: h, Misses: m}
		}
		if sh.masked != nil {
			h, m := sh.masked.Stats()
			st.MaskedCacheHits += h
			st.MaskedCacheMisses += m
			st.MaskedCache[id] = TaintCacheStat{Hits: h, Misses: m}
		}
	}
	st.ViewCacheHits += r.viewHitsBase.Load()
	st.ViewCacheMisses += r.viewMissesBase.Load()
	st.TaintCacheHits += r.taintHitsBase.Load()
	st.TaintCacheMisses += r.taintMissesBase.Load()
	st.MaskedCacheHits += r.maskedHitsBase.Load()
	st.MaskedCacheMisses += r.maskedMissesBase.Load()
	r.mu.RUnlock()
	r.usersMu.RLock()
	st.Users = len(r.users)
	r.usersMu.RUnlock()
	if r.inverted != nil {
		st.IndexTerms = r.inverted.TermCount()
		st.Postings = r.inverted.Postings()
		st.IndexSegments = r.inverted.Segments()
		st.IndexSwaps = r.inverted.Swaps()
	}
	st.CacheHits, st.CacheMisses = r.CacheStats()
	r.corpusMu.RLock()
	st.CorpusLevels = len(r.corpora)
	r.corpusMu.RUnlock()
	st.CorpusDeltas = r.corpusDeltas.Load()
	st.CorpusRebuilds = r.corpusRebuilds.Load()
	st.TaintRewritten = r.taintRewritten.Load()
	st.TaintRedacted = r.taintRedacted.Load()
	return st
}

// Describe renders a terse multi-line summary (for the CLI).
func (r *Repository) Describe() string {
	st := r.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "specs: %d, executions: %d, users: %d\n", st.Specs, st.Executions, st.Users)
	fmt.Fprintf(&b, "index: %d terms, %d postings\n", st.IndexTerms, st.Postings)
	return b.String()
}
