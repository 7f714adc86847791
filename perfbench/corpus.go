package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/storage"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// kind is one request type of the HTTP API the benchmark drives.
type kind int

const (
	kSearch     kind = iota // GET /api/v1/search
	kSpecQuery              // GET /api/v1/query without exec
	kExecQuery              // GET /api/v1/query with exec
	kProvenance             // GET /api/v1/provenance
	kWrite                  // POST /api/v1/executions
	kSave                   // POST /api/v1/save
	kPolicy                 // PUT /api/v1/policy
	nKinds
)

var kindNames = [nKinds]string{"search", "spec_query", "exec_query", "provenance", "write", "save", "policy"}

func (k kind) String() string { return kindNames[k] }

func (k kind) read() bool { return k <= kProvenance }

// workloadDef fixes everything a workload's inputs depend on except the
// seed. The comments on each definition in workloads say why it exists.
type workloadDef struct {
	name string
	why  string
	// specs and execs size the corpus: specs specifications with execs
	// executions each, every spec generated with depth, fanout and chain
	// as in workload.SpecConfig.
	specs, execs         int
	depth, fanout, chain int
	// mix weights the request kinds (indexed by kind).
	mix [nKinds]int
	// searchPool, when positive, draws searches from a fixed pool of
	// that many queries; zero draws a fresh query for every request.
	searchPool int
	// ingest is how many of the specs take the posted executions: the
	// last ones, which no query or provenance request touches, so the
	// read working set does not grow during a run.
	ingest int
	// execSkew is the exponent of the Zipf law executions are drawn
	// with (rank r has weight 1/(r+1)^execSkew); 0 draws uniformly.
	execSkew float64
	// rate is the open-loop arrival rate in requests per second: well
	// below the closed-loop throughput on the 2-core reference host
	// (about 30% on search-fanout, 20% on masked-read, 13% on mixed-rw,
	// whose open loop alone carries the writes), since at half of it
	// the latency followed provserve's garbage-collection cycles.
	rate float64
}

// workloads are the benchmark's traffic mixes. Each isolates a
// different set of layers; see README.md for the layer map.
var workloads = []workloadDef{
	{
		// Search alone, over enough specs that the fan-out and ranking
		// dominate, with a query stream long enough that the 256-entry
		// result cache mostly misses. Masked reads and storage sit idle.
		name: "search-fanout", why: "search only over 40 specs with distinct queries, so search, index, rank and workflow dominate and the result cache mostly misses",
		specs: 40, execs: 1, depth: 3, fanout: 2, chain: 4,
		mix:  [nKinds]int{kSearch: 1},
		rate: 200,
	},
	{
		// Execution-level reads on six specs with 500 executions each:
		// 2000 (execution, level) pairs per shard against a 1024-entry
		// masked LRU, Zipf-skewed so a stable share hits. Fills and hits
		// both sit on the blocking path; search is absent.
		name: "masked-read", why: "execution query and provenance on 6 specs whose execution x level set is 2x the masked LRU, Zipf-skewed, so fills and hits both block",
		specs: 6, execs: 500, depth: 3, fanout: 2, chain: 3,
		mix:      [nKinds]int{kExecQuery: 1, kProvenance: 1},
		execSkew: 0.8,
		rate:     1000,
	},
	{
		// The internal/sim read mix over a working set that fits every
		// cache, plus writers: posted executions (to two ingest specs, so
		// the read working set stays fixed), periodic saves and a rare
		// policy replacement that invalidates caches and queues prewarm
		// tasks. Reads are warm, so transport, auth and limit dominate
		// them; storage, tasks and the audit log carry writes.
		name: "mixed-rw", why: "the sim read mix on a cache-resident working set plus execution posts, saves and policy replacements, so transport, storage, tasks and audit carry the cost",
		specs: 10, execs: 12, depth: 3, fanout: 2, chain: 3, ingest: 2,
		mix:        [nKinds]int{kSearch: 4839, kSpecQuery: 1452, kExecQuery: 1451, kProvenance: 1933, kWrite: 300, kSave: 20, kPolicy: 5},
		searchPool: 24,
		rate:       800,
	},
}

// closedMix is the mix of the warm-up and closed-loop phases: the
// workload's reads only. Posts, saves and policy replacements come only
// in the open loop, which offers a fixed number of requests, so the
// data a restart recovers and the cache invalidations a run sees do not
// grow with throughput.
func (w workloadDef) closedMix() [nKinds]int {
	m := w.mix
	m[kWrite], m[kSave], m[kPolicy] = 0, 0, 0
	return m
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// writeTemplates is how many distinct execution bodies per spec the
// writers cycle through; each post gets a fresh id.
const writeTemplates = 8

// templateID marks the execution id inside a write template; the
// generator splices a fresh id over it.
const templateID = "perfbench-template-id"

// corpus is one workload's generated data.
type corpus struct {
	def   workloadDef
	seed  int64
	specs []*workflow.Spec
	pols  []*privacy.Policy
	hiers []*workflow.Hierarchy
	execs [][]*exec.Execution
	// templates[i] are JSON execution bodies of spec i with templateID
	// as their id, decoded in templateExecs[i].
	templates     [][][]byte
	templateExecs [][]*exec.Execution
	// polBodies[i] is the PUT /api/v1/policy body that re-installs spec
	// i's own policy: answers stay the same, caches are invalidated.
	polBodies [][]byte
	// itemIDs[i][j] are the sorted item ids of execution j of spec i.
	itemIDs [][][]string
	specIdx map[string]int
	// execIdx maps "spec/exec" to every execution generated or posted.
	execIdx map[string]*exec.Execution
}

// corpusSeed seeds every workload's specs, policies and executions.
// The run seed draws everything else: the request streams (principals,
// queries, specs, executions, items, posted bodies) and the token
// secrets. A corpus drawn from the run seed doubled the spread of
// search-fanout's throughput across seeds (quartile distance 0.24 of
// the median against 0.10) on the 2-core reference host, because the
// cost of a search depends on which modules each random policy hides.
const corpusSeed = 1

// generate builds the corpus exactly as cmd/provgen does (RandomSpec,
// RandomPolicy, a runner over RandomInputs), from corpusSeed; seed
// seeds the corpus's request streams.
func generate(def workloadDef, seed int64) (*corpus, error) {
	c := &corpus{def: def, seed: seed, specIdx: map[string]int{}, execIdx: map[string]*exec.Execution{}}
	base := int64(corpusSeed) * 1_000_003
	for i := 0; i < def.specs; i++ {
		spec, err := workload.RandomSpec(workload.SpecConfig{
			Seed: base + int64(i), ID: fmt.Sprintf("synth-%d", i),
			Depth: def.depth, Fanout: def.fanout, Chain: def.chain, SkipProb: 0.3,
		})
		if err != nil {
			return nil, fmt.Errorf("generate spec %d: %w", i, err)
		}
		pol, err := workload.RandomPolicy(spec, base+int64(i))
		if err != nil {
			return nil, fmt.Errorf("generate policy %d: %w", i, err)
		}
		hier, err := workflow.NewHierarchy(spec)
		if err != nil {
			return nil, fmt.Errorf("hierarchy %d: %w", i, err)
		}
		runner := exec.NewRunner(spec, nil)
		run := func(id string, j int) (*exec.Execution, error) {
			return runner.Run(id, workload.RandomInputs(spec, base+int64(i*100_000+j)))
		}
		var execs []*exec.Execution
		var items [][]string
		for j := 0; j < def.execs; j++ {
			e, err := run(fmt.Sprintf("%s-E%d", spec.ID, j), j)
			if err != nil {
				return nil, fmt.Errorf("execute %s run %d: %w", spec.ID, j, err)
			}
			execs = append(execs, e)
			items = append(items, e.ItemIDs())
			c.execIdx[spec.ID+"/"+e.ID] = e
		}
		// Write templates exist on every workload: the traced run's
		// probe posts executions even where the workload does not.
		var tmpls [][]byte
		var tmplExecs []*exec.Execution
		for j := 0; j < writeTemplates; j++ {
			e, err := run(templateID, def.execs+j)
			if err != nil {
				return nil, fmt.Errorf("execute %s template %d: %w", spec.ID, j, err)
			}
			var b bytes.Buffer
			if err := exec.WriteExecution(&b, e); err != nil {
				return nil, fmt.Errorf("encode template: %w", err)
			}
			tmpls = append(tmpls, b.Bytes())
			tmplExecs = append(tmplExecs, e)
		}
		polBody, err := json.Marshal(map[string]any{"spec": spec.ID, "policy": pol})
		if err != nil {
			return nil, fmt.Errorf("encode policy: %w", err)
		}
		c.specIdx[spec.ID] = i
		c.specs = append(c.specs, spec)
		c.pols = append(c.pols, pol)
		c.hiers = append(c.hiers, hier)
		c.execs = append(c.execs, execs)
		c.itemIDs = append(c.itemIDs, items)
		c.templates = append(c.templates, tmpls)
		c.templateExecs = append(c.templateExecs, tmplExecs)
		c.polBodies = append(c.polBodies, polBody)
	}
	return c, nil
}

// newRepo builds the corpus in memory, with the four users provserve
// registers by default.
func (c *corpus) newRepo() (*repo.Repository, error) {
	r := repo.New()
	for i, spec := range c.specs {
		if err := r.AddSpec(spec, c.pols[i]); err != nil {
			return nil, fmt.Errorf("add spec %s: %w", spec.ID, err)
		}
		for _, e := range c.execs[i] {
			if err := r.AddExecution(e); err != nil {
				return nil, fmt.Errorf("add execution %s: %w", e.ID, err)
			}
		}
	}
	for _, u := range users {
		r.AddUser(u)
	}
	return r, nil
}

// write persists the corpus to dir through the storage engine, as
// cmd/provgen does, and returns the storage counters of the write.
func (c *corpus) write(dir string) (storage.MeasureStats, error) {
	r, err := c.newRepo()
	if err != nil {
		return storage.MeasureStats{}, err
	}
	b, err := storage.OpenFlat(dir)
	if err != nil {
		return storage.MeasureStats{}, err
	}
	m := storage.NewMeasure(b)
	if err := r.BindStorage(m, dir); err != nil {
		m.Close()
		return storage.MeasureStats{}, err
	}
	if err := r.Save(dir); err != nil {
		r.CloseStorage()
		return storage.MeasureStats{}, fmt.Errorf("save %s: %w", dir, err)
	}
	st := m.Stats()
	return st, r.CloseStorage()
}

// users are the principals provserve registers by default, one per
// privacy level.
var users = []privacy.User{
	{Name: "public", Level: privacy.Public, Group: "public"},
	{Name: "registered", Level: privacy.Registered, Group: "registered"},
	{Name: "analyst", Level: privacy.Analyst, Group: "analysts"},
	{Name: "owner", Level: privacy.Owner, Group: "owners"},
}

// request is one generated HTTP request plus what the checks need to
// know about it.
type request struct {
	idx    int
	kind   kind
	method string
	target string // path and query
	body   []byte
	// cred indexes creds: the bearer token the request carries.
	cred  int
	level privacy.Level
	user  string
	// spec, exec, item and q are the request's parameters (as sent).
	spec, exec, item, q string
}

// stream generates a workload's request sequence. The sequence is a
// pure function of (corpus, seed, phase): the same arguments give the
// same requests in the same order, however many clients consume it.
type stream struct {
	c      *corpus
	rng    *rand.Rand
	phase  string
	mixCum []int
	pool   []string
	execW  []float64 // cumulative Zipf weights over executions
	n      int
	writes int
}

func newStream(c *corpus, phase string, mix [nKinds]int) *stream {
	s := &stream{c: c, phase: phase, rng: rand.New(rand.NewSource(streamSeed(c.seed, phase)))}
	total := 0
	for _, w := range mix {
		total += w
		s.mixCum = append(s.mixCum, total)
	}
	if c.def.searchPool > 0 {
		// The pool depends on the seed only, so every phase searches the
		// same working set.
		s.pool = workload.RandomQueries(rand.New(rand.NewSource(c.seed)), nil, c.def.searchPool)
	}
	s.execW = zipfCDF(c.def.execs, c.def.execSkew)
	return s
}

// streamSeed derives a phase's seed from the run seed.
func streamSeed(seed int64, phase string) int64 {
	h := int64(1469598103934665603)
	for i := 0; i < len(phase); i++ {
		h = (h ^ int64(phase[i])) * 1099511628211
	}
	return seed ^ h
}

// zipfCDF returns cumulative weights 1/(r+1)^s for r < n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	acc := 0.0
	for r := 0; r < n; r++ {
		acc += 1 / math.Pow(float64(r+1), s)
		cdf[r] = acc
	}
	return cdf
}

func (s *stream) pickExec() int {
	x := s.rng.Float64() * s.execW[len(s.execW)-1]
	return sort.SearchFloat64s(s.execW, x)
}

func (s *stream) pickKind() kind {
	x := s.rng.Intn(s.mixCum[len(s.mixCum)-1])
	for k, cum := range s.mixCum {
		if x < cum {
			return kind(k)
		}
	}
	return kSearch
}

// vocab is the keyword vocabulary module names are drawn from.
var vocab = workload.DefaultVocab()

// next returns the stream's next request. Not safe for concurrent use.
func (s *stream) next() *request {
	c := s.c
	r := &request{idx: s.n, kind: s.pickKind()}
	s.n++
	lvl := s.rng.Intn(len(users))
	r.level, r.user = users[lvl].Level, users[lvl].Name
	r.cred = credIndex(lvl, roleReader)
	r.method = "GET"
	si := s.rng.Intn(len(c.specs) - c.def.ingest)
	if r.kind == kWrite && c.def.ingest > 0 {
		si = len(c.specs) - c.def.ingest + s.rng.Intn(c.def.ingest)
	}
	r.spec = c.specs[si].ID
	switch r.kind {
	case kSearch:
		r.spec = ""
		if s.pool != nil {
			r.q = s.pool[s.rng.Intn(len(s.pool))]
		} else {
			r.q = workload.RandomQueries(s.rng, vocab, 1)[0]
		}
		r.target = "/api/v1/search?q=" + url.QueryEscape(r.q)
	case kSpecQuery:
		r.q = fmt.Sprintf(`MATCH a = %q, b = %q WHERE a ~> b`,
			vocab[workload.ZipfPick(s.rng, len(vocab))], vocab[workload.ZipfPick(s.rng, len(vocab))])
		r.target = "/api/v1/query?spec=" + url.QueryEscape(r.spec) + "&q=" + url.QueryEscape(r.q)
	case kExecQuery:
		e := c.execs[si][s.pickExec()]
		r.exec = e.ID
		r.q = fmt.Sprintf(`MATCH a = %q`, vocab[workload.ZipfPick(s.rng, len(vocab))])
		r.target = "/api/v1/query?spec=" + url.QueryEscape(r.spec) + "&exec=" + url.QueryEscape(r.exec) + "&q=" + url.QueryEscape(r.q)
	case kProvenance:
		ei := s.pickExec()
		items := c.itemIDs[si][ei]
		r.exec = c.execs[si][ei].ID
		r.item = items[s.rng.Intn(len(items))]
		r.target = "/api/v1/provenance?spec=" + url.QueryEscape(r.spec) + "&exec=" + url.QueryEscape(r.exec) + "&item=" + url.QueryEscape(r.item)
	case kWrite:
		r.method, r.target = "POST", "/api/v1/executions"
		r.cred = credIndex(lvl, roleWriter)
		r.exec = fmt.Sprintf("%s-%s-w%d", r.spec, s.phase, s.writes)
		tmpl := c.templates[si][s.writes%writeTemplates]
		c.execIdx[r.spec+"/"+r.exec] = c.templateExecs[si][s.writes%writeTemplates]
		s.writes++
		r.body = bytes.Replace(tmpl, []byte(`"`+templateID+`"`), []byte(`"`+r.exec+`"`), 1)
	case kSave:
		r.method, r.target, r.spec = "POST", "/api/v1/save", ""
		r.cred = credIndex(lvl, roleAdmin)
	case kPolicy:
		r.method, r.target = "PUT", "/api/v1/policy"
		r.cred = credIndex(lvl, roleWriter)
		r.body = c.polBodies[si]
	}
	return r
}

// streamDigest hashes the first n requests of a phase's stream: method,
// target, credential and body of each, in order.
func streamDigest(c *corpus, phase string, mix [nKinds]int, n int) string {
	h := sha256.New()
	s := newStream(c, phase, mix)
	for i := 0; i < n; i++ {
		r := s.next()
		fmt.Fprintf(h, "%s %s %d %d\n", r.method, r.target, r.cred, len(r.body))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
