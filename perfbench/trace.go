package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"provpriv/internal/auditlog"
	"provpriv/internal/auth"
	"provpriv/internal/exec"
	"provpriv/internal/index"
	"provpriv/internal/limit"
	"provpriv/internal/obs"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/rank"
	"provpriv/internal/repo"
	"provpriv/internal/search"
	"provpriv/internal/server"
	"provpriv/internal/storage"
	"provpriv/internal/taint"
	"provpriv/internal/tasks"
	"provpriv/internal/workflow"
)

// The traced run replays a workload's open-loop request stream in this
// process, one request at a time, through two identical stacks loaded
// from the same data:
//
//   - the untraced stack serves each request through the production
//     handler (server.Handler with token auth, limiter, audit log, task
//     runtime and observer, as provserve wires them) and times it whole;
//   - the traced stack calls each layer's public function in the order
//     the handler does (auth, limit, the repository method) and records
//     a span around each call.
//
// Inner layers run inside the repository method, out of reach of
// spans recorded from outside the program. The traced stack therefore
// replays them on the same inputs right after the repository call, and
// attributes a replay to the request only when the repository's
// counter deltas around the call show the layer was on its path:
// collapse, taint analysis and apply and PrepareExec only on a masked-
// snapshot miss, the search pipeline only on a result-cache miss.
// Both stacks see the same requests in the same order, so their caches
// stay in step; the fan-out pool is one worker wide on both so that
// child spans add up to their parent.

// span is one timed call of the traced run.
type span struct {
	name       string
	req        int // request id: stream index, probe requests after the stream
	parent     int // index into the tracer's spans, -1 for a root
	start, end time.Duration
	probe      bool
}

type tracer struct {
	t0    time.Time
	spans []span
	probe bool
}

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: time.Since(t.t0), probe: t.probe})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.t0) }

func (s span) dur() time.Duration { return s.end - s.start }

// probeMix is the fixed set of requests replayed after the workload's
// stream, so that every layer has a per-call figure on every workload.
// Probe spans count towards per-call means, never towards the shares
// that show which layers a workload isolates.
var probeMix = []struct {
	k kind
	n int
}{{kSearch, 40}, {kExecQuery, 40}, {kProvenance, 40}, {kSpecQuery, 4}, {kWrite, 8}, {kPolicy, 1}, {kSave, 1}}

// taskObs records the task runtime's terminal-task observations.
type taskObs struct {
	mu         sync.Mutex
	waits, run []float64
}

func (o *taskObs) observe(_ string, wait, run time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.waits = append(o.waits, ms(wait))
	o.run = append(o.run, ms(run))
}

func (o *taskObs) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.run)
}

// stack is one in-process copy of the serving stack.
type stack struct {
	dir   string
	store *storage.Measure
	repo  *repo.Repository
	auth  *auth.Store
	lim   *limit.Limiter
	audit *auditlog.Log
}

func loadStack(c *corpus, dir, tokens string) (*stack, error) {
	if _, err := c.write(dir); err != nil {
		return nil, err
	}
	b, err := storage.OpenFlat(dir)
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, store: storage.NewMeasure(b), lim: limit.New(limit.Config{})}
	if st.repo, err = repo.LoadStorage(st.store, dir); err != nil {
		st.store.Close()
		return nil, err
	}
	st.repo.SetWorkers(1)
	for _, u := range users {
		st.repo.AddUser(u)
	}
	if st.auth, err = auth.NewFileStore(tokens); err != nil {
		st.close()
		return nil, err
	}
	ab, err := storage.OpenFlat(dir + "-audit")
	if err != nil {
		st.close()
		return nil, err
	}
	if st.audit, err = auditlog.Open(ab); err != nil {
		ab.Close()
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) close() {
	st.repo.CloseStorage()
	if st.audit != nil {
		st.audit.Close()
	}
}

// unlimitedRate is the token bucket the benchmark configures for every
// role: far above the offered load.
var unlimitedRate = limit.Rate{PerSec: 1e6, Burst: 1e6}

// traced is the traced stack plus the replicas of repository-internal
// state its inner-layer replays need.
type traced struct {
	c       *corpus
	st      *stack
	tr      *tracer
	creds   []cred
	inv     *index.Inverted
	corpora map[privacy.Level]*rank.Corpus
	engines []*taint.Engine
	preps   map[string]prepared
	// counts of inner work, for the per-request ratios
	searches, scanned, useful int
	postedBytes               int
}

type prepared struct {
	prep   *query.PreparedExec
	zoomed bool
}

// maxPreps bounds the replica of the masked-snapshot cache.
const maxPreps = 4096

func newTraced(c *corpus, st *stack, creds []cred) *traced {
	pols := map[string]*privacy.Policy{}
	for i, s := range c.specs {
		pols[s.ID] = c.pols[i]
	}
	t := &traced{c: c, st: st, creds: creds, tr: &tracer{t0: time.Now()},
		inv: index.BuildInverted(c.specs, pols), corpora: map[privacy.Level]*rank.Corpus{}, preps: map[string]prepared{}}
	for _, u := range users {
		rc := rank.NewCorpus()
		for i, s := range c.specs {
			rc.Add(s.ID, visibleTerms(s, c.pols[i], u.Level))
		}
		t.corpora[u.Level] = rc
	}
	for _, pol := range c.pols {
		t.engines = append(t.engines, taint.NewEngine(pol, nil))
	}
	return t
}

// visibleTerms is the per-level ranking document of a spec, as the
// repository builds it.
func visibleTerms(s *workflow.Spec, pol *privacy.Policy, level privacy.Level) []string {
	var terms []string
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if !pol.CanSeeModule(level, m.ID) {
				continue
			}
			for _, kw := range m.AllKeywords() {
				terms = append(terms, search.Normalize(kw))
			}
		}
	}
	return terms
}

// serve runs one request through the traced stack.
func (t *traced) serve(id int, r *request) error {
	tr := t.tr
	root := tr.begin("request", id, -1)
	defer tr.end(root)
	sp := tr.begin("auth.authenticate", id, root)
	tok, ok := t.st.auth.Authenticate(t.creds[r.cred].secret)
	tr.end(sp)
	if !ok {
		return fmt.Errorf("token %s rejected", t.creds[r.cred].name)
	}
	sp = tr.begin("limit.allow", id, root)
	dec := t.st.lim.Allow(tok.Name, unlimitedRate)
	dec.Release()
	tr.end(sp)
	if !dec.OK {
		return fmt.Errorf("limiter refused %s", tok.Name)
	}
	ctx := context.Background()
	rp := t.st.repo
	si := t.c.specIdx[r.spec]
	before := rp.Stats()
	switch r.kind {
	case kSearch:
		sp = tr.begin("repo.search", id, root)
		_, _, err := rp.SearchPageCtx(ctx, r.user, r.q, repo.SearchOptions{})
		tr.end(sp)
		if err != nil {
			return err
		}
		t.searches++
		if rp.Stats().CacheMisses > before.CacheMisses {
			t.replaySearch(id, sp, r)
		}
	case kSpecQuery:
		sp = tr.begin("repo.query_all", id, root)
		_, _, err := rp.QueryAllPageCtx(ctx, r.user, r.spec, r.q, 0, 0)
		tr.end(sp)
		if err != nil && !isRefusal(err) {
			return err
		}
		qp := tr.begin("query.parse", id, sp)
		query.Parse(r.q)
		tr.end(qp)
	case kExecQuery, kProvenance:
		name := "repo.query"
		if r.kind == kProvenance {
			name = "repo.provenance"
		}
		sp = tr.begin(name, id, root)
		var err error
		if r.kind == kExecQuery {
			_, err = rp.Query(r.user, r.spec, r.exec, r.q)
		} else {
			_, err = rp.ProvenanceWithCtx(ctx, r.user, r.spec, r.exec, r.item, repo.ProvenanceOptions{})
		}
		tr.end(sp)
		if err != nil && !isRefusal(err) {
			return err
		}
		t.replayMasked(id, sp, si, r, before, rp.Stats())
	case kWrite:
		e := &exec.Execution{}
		if err := json.Unmarshal(r.body, e); err != nil {
			return err
		}
		t.postedBytes += len(r.body)
		sp = tr.begin("repo.add_execution", id, root)
		err := rp.AddExecution(e)
		tr.end(sp)
		if err != nil {
			return err
		}
	case kSave:
		sp = tr.begin("repo.save", id, root)
		err := rp.SaveCtx(ctx, t.st.dir)
		tr.end(sp)
		if err != nil {
			return err
		}
	case kPolicy:
		var req struct {
			Spec   string          `json:"spec"`
			Policy *privacy.Policy `json:"policy"`
		}
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		sp = tr.begin("repo.update_policy", id, root)
		err := rp.UpdatePolicy(req.Spec, req.Policy)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	if !r.kind.read() {
		sp = tr.begin("auditlog.append", id, root)
		err := t.st.audit.Append(auditlog.Record{Principal: r.user, Token: tok.Name, Action: r.kind.String(),
			Target: r.spec, Status: http.StatusOK, Outcome: "ok"})
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// isRefusal reports an answer the policy refuses (403/404 on the wire).
func isRefusal(err error) bool {
	return errors.Is(err, repo.ErrDenied) || errors.Is(err, repo.ErrNotFound)
}

// replaySearch replays the result-cache miss path of repo.SearchPageCtx:
// parse, index lookup, ranking, the match predicate per candidate and
// the minimal-view search per matching candidate.
func (t *traced) replaySearch(id, parent int, r *request) {
	tr := t.tr
	sp := tr.begin("search.parse", id, parent)
	phrases := search.ParseQuery(r.q)
	tr.end(sp)
	sp = tr.begin("index.lookup", id, parent)
	cands := map[string]bool{}
	for _, ph := range phrases {
		for _, p := range t.inv.Lookup(ph[0], r.level) {
			cands[p.SpecID] = true
		}
	}
	tr.end(sp)
	var flat []string
	for _, ph := range phrases {
		flat = append(flat, ph...)
	}
	sp = tr.begin("rank.rank", id, parent)
	t.corpora[r.level].Rank(flat)
	tr.end(sp)
	ids := make([]string, 0, len(cands))
	for sid := range cands {
		ids = append(ids, sid)
	}
	sort.Strings(ids)
	for _, sid := range ids {
		i := t.c.specIdx[sid]
		spec, pol := t.c.specs[i], t.c.pols[i]
		sp = tr.begin("search.match", id, parent)
		ok := search.Matches(spec, phrases, pol, r.level)
		tr.end(sp)
		t.scanned++
		if !ok {
			continue
		}
		t.useful++
		sp = tr.begin("search.with_access", id, parent)
		res, err := search.SearchWithAccess(spec, phrases, pol.AccessView(t.c.hiers[i], r.level), pol, r.level)
		tr.end(sp)
		if err != nil {
			continue
		}
		// SearchWithAccess builds the hierarchy and expands the answer
		// view internally; the replay times those two calls.
		hp := tr.begin("workflow.hierarchy", id, sp)
		workflow.NewHierarchy(spec)
		workflow.Expand(spec, res.Prefix)
		tr.end(hp)
	}
}

// replayMasked replays the masked read path after repo.Query or
// repo.ProvenanceWithCtx: the snapshot fill when the masked cache
// missed (collapse only on a view-cache miss, analysis only on a
// taint-cache miss), then the evaluation or provenance extraction.
func (t *traced) replayMasked(id, parent, si int, r *request, before, after repo.Stats) {
	tr := t.tr
	var q *query.Query
	if r.kind == kExecQuery {
		sp := tr.begin("query.parse", id, parent)
		q, _ = query.Parse(r.q)
		tr.end(sp)
	}
	key := fmt.Sprintf("%s|%s|%d", r.spec, r.exec, r.level)
	p, have := t.preps[key]
	if miss := after.MaskedCacheMisses > before.MaskedCacheMisses; miss || !have {
		p = t.fill(id, parent, si, r, miss && after.ViewCacheMisses > before.ViewCacheMisses,
			miss && after.TaintCacheMisses > before.TaintCacheMisses, miss)
		if len(t.preps) >= maxPreps {
			clear(t.preps)
		}
		t.preps[key] = p
	}
	if p.prep == nil {
		return
	}
	pol := t.c.pols[si]
	if r.kind == kExecQuery {
		if q == nil {
			return
		}
		sp := tr.begin("query.evaluate", id, parent)
		query.NewEvaluator(t.c.specs[si]).EvaluateOn(q, p.prep, pol, r.level, p.zoomed)
		tr.end(sp)
		return
	}
	if p.prep.Exec.Items[r.item] == nil {
		return
	}
	sp := tr.begin("exec.provenance_in", id, parent)
	exec.ProvenanceIn(p.prep.Exec, p.prep.Graph(), r.item)
	tr.end(sp)
}

// fill rebuilds a masked snapshot as repo's maskedExecFor does; the
// flags say which steps the repository paid for and get spans.
func (t *traced) fill(id, parent, si int, r *request, collapse, analyze, fill bool) prepared {
	tr := t.tr
	e := t.c.execIdx[r.spec+"/"+r.exec]
	spec, pol, hier, en := t.c.specs[si], t.c.pols[si], t.c.hiers[si], t.engines[si]
	timed := func(on bool, name string, fn func()) {
		if !on {
			fn()
			return
		}
		sp := tr.begin(name, id, parent)
		fn()
		tr.end(sp)
	}
	access := pol.AccessView(hier, r.level)
	var view *exec.Execution
	var err error
	timed(collapse, "exec.collapse", func() { view, err = exec.Collapse(e, spec, access) })
	if err != nil {
		return prepared{}
	}
	var set *taint.Set
	timed(analyze, "taint.analyze", func() { set = en.Analyze(e) })
	var masked *exec.Execution
	timed(fill, "taint.apply", func() { masked, _ = en.Apply(view, r.level, set) })
	var prep *query.PreparedExec
	timed(fill, "query.prepare", func() { prep, err = query.PrepareExec(masked) })
	if err != nil {
		return prepared{}
	}
	return prepared{prep: prep, zoomed: len(access) < len(hier.All())}
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	n          int
	total, own time.Duration
}

// aggregate sums spans by name: total duration and self time (duration
// minus the children's). Probe spans are included when withProbe.
func aggregate(spans []span, withProbe bool) map[string]*layerStats {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	out := map[string]*layerStats{}
	for i, s := range spans {
		if s.probe && !withProbe {
			continue
		}
		ls := out[s.name]
		if ls == nil {
			ls = &layerStats{}
			out[s.name] = ls
		}
		ls.n++
		ls.total += s.dur()
		ls.own += s.dur() - child[i]
	}
	return out
}

func (l *layerStats) count() int {
	if l == nil {
		return 0
	}
	return l.n
}

func (l *layerStats) meanUS(self bool) float64 {
	if l == nil || l.n == 0 {
		return 0
	}
	d := l.total
	if self {
		d = l.own
	}
	return us(d) / float64(l.n)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// perLayer runs the traced replay and combines its spans with the
// counter deltas scraped from provserve around the timed phases.
func perLayer(c *corpus, def workloadDef, cfg runConfig, dir string, creds []cred, timed, open []*recorder, started, before, after, recovered scrape) ([]metric, error) {
	tokens := filepath.Join(dir, "tokens")
	ckpt, err := c.write(filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	plain, err := loadStack(c, filepath.Join(dir, "untraced"), tokens)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	tl, err := loadStack(c, filepath.Join(dir, "traced"), tokens)
	if err != nil {
		return nil, err
	}
	defer tl.close()

	srv := server.New(plain.repo)
	srv.Store, srv.RequireStorage, srv.SaveDir = plain.store, true, plain.dir
	srv.Auth, srv.Audit, srv.Limiter = plain.auth, plain.audit, plain.lim
	srv.Rates = server.RoleRates{Reader: unlimitedRate, Writer: unlimitedRate, Admin: unlimitedRate}
	tobs := &taskObs{}
	rt := tasks.New(2, 64)
	rt.SetObserve(tobs.observe)
	defer rt.Drain(context.Background())
	srv.Tasks = rt
	srv.Obs = obs.NewObserver(obs.NewMetrics(), obs.Discard, obs.NewTracer(256, 8, 500*time.Millisecond))
	h := srv.Handler()

	t := newTraced(c, tl, creds)
	// The workload part replays the open-loop stream, as many requests
	// as the open-loop phase offered.
	_, _, openDur := phases(cfg.seconds)
	n := int(def.rate * openDur.Seconds())
	reqs := make([]*request, 0, n)
	ws := newStream(c, "open", def.mix)
	for i := 0; i < n; i++ {
		reqs = append(reqs, ws.next())
	}
	nWorkload := len(reqs)
	for _, p := range probeMix {
		var mix [nKinds]int
		mix[p.k] = 1
		ps := newStream(c, "probe-"+p.k.String(), mix)
		for i := 0; i < p.n; i++ {
			reqs = append(reqs, ps.next())
		}
	}

	var untracedTotal, handlerSelf time.Duration
	respBytes, tasksInWorkload := 0, 0
	dirBefore, storeBefore := dirBytes(tl.dir), tl.store.Stats()
	for i, r := range reqs {
		if i == nWorkload {
			t.tr.probe = true
			tasksInWorkload = tobs.count()
		}
		hr := httptest.NewRequest(r.method, r.target, bytes.NewReader(r.body))
		hr.Header.Set("Authorization", creds[r.cred].header)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, hr)
		took := time.Since(start)
		if rec.Code >= 500 || rec.Code == http.StatusUnauthorized || rec.Code == http.StatusTooManyRequests {
			return nil, fmt.Errorf("untraced replay: %s %s: status %d", r.method, r.target, rec.Code)
		}
		if i < nWorkload {
			untracedTotal += took
		}
		respBytes += rec.Body.Len()
		first := len(t.tr.spans)
		if err := t.serve(i, r); err != nil {
			return nil, fmt.Errorf("traced replay: %s %s: %w", r.method, r.target, err)
		}
		// The handler's own time: the whole handler minus the repository
		// call the traced stack timed for the same request.
		handlerSelf += took
		for _, s := range t.tr.spans[first:] {
			if strings.HasPrefix(s.name, "repo.") {
				handlerSelf -= s.dur()
			}
		}
	}
	storeAfter := tl.store.Stats()
	rt.Drain(context.Background())

	all, wl := aggregate(t.tr.spans, true), aggregate(t.tr.spans, false)
	// timing is a layer's mean µs per call over the whole replay, probe
	// included; self subtracts the replayed children.
	timing := func(name, span string, self bool) metric {
		ls := all[span]
		return metric{name, ls.meanUS(self), "us", ls.count()}
	}
	// spanTime sums span durations over the workload's requests only;
	// with no names, those of the repository spans.
	spanTime := func(names ...string) float64 {
		var d time.Duration
		for name, ls := range wl {
			if slices.Contains(names, name) || (len(names) == 0 && strings.HasPrefix(name, "repo.")) {
				d += ls.total
			}
		}
		return float64(d)
	}
	calls := func(names ...string) float64 {
		n := 0
		for _, name := range names {
			n += wl[name].count()
		}
		return float64(n)
	}
	repoTime := spanTime()

	// Counters scraped from provserve around the timed phases.
	nTimed, clientSvc := 0, 0.0
	for _, rec := range timed {
		for _, r := range rec.results {
			nTimed++
			clientSvc += us(r.service)
		}
	}
	var lags []float64
	for _, rec := range open {
		for _, r := range rec.results {
			lags = append(lags, ms(r.lag))
		}
	}
	apiDelta := func(suffix string) float64 {
		family := "provpriv_http_request_duration_seconds" + suffix
		return sumDelta(before, after, family, "/api/v1/") - sumDelta(before, after, family, "/api/v1/stats")
	}
	serverN := apiDelta("_count")
	serverMean := ratio(apiDelta("_sum")*1e6, serverN)
	hitRatio := func(cache string) float64 {
		h := delta(before, after, "provpriv_"+cache+"_hits_total")
		return ratio(h, h+delta(before, after, "provpriv_"+cache+"_misses_total"))
	}
	perReq := func(series string) float64 { return ratio(delta(before, after, series), float64(nTimed)) }
	storeMean := func(nanos, n uint64) float64 { return ratio(float64(nanos)/1e3, float64(n)) }
	replays := recovered.metrics["provpriv_storage_replays_total"]

	tobs.mu.Lock()
	waitP99, runP50, taskN := percentile(tobs.waits, 99), percentile(tobs.run, 50), len(tobs.run)
	tobs.mu.Unlock()

	return []metric{
		{"server.handler_self_us", us(handlerSelf) / float64(len(reqs)), "us", len(reqs)},
		{"server.resp_bytes_per_req", ratio(float64(respBytes), float64(len(reqs))), "bytes", len(reqs)},
		{"obs.server_side_mean_us", serverMean, "us", int(serverN)},
		{"net.client_minus_server_mean_us", ratio(clientSvc, float64(nTimed)) - serverMean, "us", nTimed},
		timing("auth.authenticate_us", "auth.authenticate", false),
		timing("limit.allow_us", "limit.allow", false),
		{"limit.rejected", sumDelta(started, after, "provpriv_limit_rejected_"), "count", nTimed},
		timing("repo.search_self_us", "repo.search", true),
		timing("repo.query_self_us", "repo.query", true),
		timing("repo.query_all_self_us", "repo.query_all", true),
		timing("repo.provenance_self_us", "repo.provenance", true),
		timing("repo.add_execution_us", "repo.add_execution", false),
		timing("repo.save_us", "repo.save", false),
		{"repo.masked_cache_hit_ratio", hitRatio("masked_exec_cache"), "ratio", nTimed},
		{"repo.view_cache_hit_ratio", hitRatio("view_cache"), "ratio", nTimed},
		{"repo.taint_cache_hit_ratio", hitRatio("taint_cache"), "ratio", nTimed},
		{"index.result_cache_hit_ratio", hitRatio("result_cache"), "ratio", nTimed},
		timing("index.lookup_us", "index.lookup", false),
		timing("search.parse_us", "search.parse", false),
		timing("search.match_us", "search.match", false),
		timing("search.with_access_us", "search.with_access", true),
		{"search.specs_scanned_per_req", ratio(float64(t.scanned), float64(t.searches)), "count", t.searches},
		{"search.useful_ratio", ratio(float64(t.useful), float64(t.scanned)), "ratio", t.scanned},
		timing("rank.rank_us", "rank.rank", false),
		timing("workflow.hierarchy_us", "workflow.hierarchy", false),
		timing("exec.collapse_us", "exec.collapse", false),
		timing("exec.provenance_in_us", "exec.provenance_in", false),
		timing("taint.analyze_us", "taint.analyze", false),
		timing("taint.apply_us", "taint.apply", false),
		{"taint.rewritten_per_req", perReq("provpriv_taint_items_rewritten_total"), "count", nTimed},
		{"taint.redacted_per_req", perReq("provpriv_taint_items_redacted_total"), "count", nTimed},
		timing("query.parse_us", "query.parse", false),
		timing("query.evaluate_us", "query.evaluate", false),
		timing("query.prepare_us", "query.prepare", false),
		{"storage.append_us", storeMean(storeAfter.AppendNanos-storeBefore.AppendNanos, storeAfter.Appends-storeBefore.Appends), "us", int(storeAfter.Appends - storeBefore.Appends)},
		{"storage.commit_us", storeMean(storeAfter.CommitNanos-storeBefore.CommitNanos, storeAfter.Commits-storeBefore.Commits), "us", int(storeAfter.Commits - storeBefore.Commits)},
		{"storage.checkpoint_us", storeMean(ckpt.CheckpointNanos, ckpt.Checkpoints), "us", int(ckpt.Checkpoints)},
		{"storage.replay_us", ratio(recovered.metrics["provpriv_storage_replay_nanos_total"]/1e3, replays), "us", int(replays)},
		{"storage.bytes_written_per_user_byte", ratio(float64(dirBytes(tl.dir)-dirBefore), float64(t.postedBytes)), "ratio", t.postedBytes},
		{"tasks.queue_wait_p99_ms", waitP99, "ms", taskN},
		{"tasks.run_p50_ms", runP50, "ms", taskN},
		{"tasks.retries", float64(rt.Stats().Retries), "count", taskN},
		timing("auditlog.append_us", "auditlog.append", false),
		{"driver.lag_p99_ms", percentile(lags, 99), "ms", len(lags)},
		{"trace.overhead_pct", 100 * (ratio(spanTime("request"), float64(untracedTotal)) - 1), "%", nWorkload},
		{"trace.search_share", ratio(spanTime("search.parse", "index.lookup", "rank.rank", "search.match", "search.with_access"), repoTime), "ratio", nWorkload},
		{"trace.fill_share", ratio(spanTime("exec.collapse", "taint.analyze", "taint.apply", "query.prepare"), repoTime), "ratio", nWorkload},
		{"trace.write_spans", calls("repo.add_execution", "repo.save", "repo.update_policy", "auditlog.append"), "count", nWorkload},
		{"trace.task_runs", float64(tasksInWorkload), "count", nWorkload},
	}, nil
}
