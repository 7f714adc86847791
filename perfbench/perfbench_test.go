package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"provpriv/internal/server"
)

func mustGenerate(t *testing.T, def workloadDef, seed int64) *corpus {
	t.Helper()
	c, err := generate(def, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStreamDigestFollowsSeed(t *testing.T) {
	for _, def := range workloads {
		def := def
		// A smaller corpus of the same shape keeps the test fast; the
		// stream logic is the same.
		def.specs, def.execs = min(def.specs, 6), min(def.execs, 20)
		t.Run(def.name, func(t *testing.T) {
			a := streamDigest(mustGenerate(t, def, 1), "open", def.mix, 500)
			b := streamDigest(mustGenerate(t, def, 1), "open", def.mix, 500)
			c := streamDigest(mustGenerate(t, def, 2), "open", def.mix, 500)
			if a != b {
				t.Errorf("seed 1 gave two digests: %s and %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 gave the same digest %s", a)
			}
		})
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99, 10},
		{hundred, 99, 99},
		{hundred, 1, 1},
		{nil, 50, 0},
	} {
		if got := percentile(append([]float64(nil), tc.xs...), tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	// Expected values from Python: statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(append([]float64(nil), tc.xs...))
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("relIQR(1..10) = %v, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestOpenLoopDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	for _, tc := range []struct {
		rate float64
		i    int
		want time.Duration
	}{
		{250, 0, 0},
		{250, 3, 12 * time.Millisecond},
		{2000, 1000, 500 * time.Millisecond},
		{3, 1, 333333333 * time.Nanosecond},
	} {
		if got := dueAt(start, tc.rate, tc.i).Sub(start); got != tc.want {
			t.Errorf("dueAt(rate %v, %d) = start+%v, want start+%v", tc.rate, tc.i, got, tc.want)
		}
	}
}

// doctor decodes body, applies fn to the generic JSON and re-encodes.
func doctor(t *testing.T, body []byte, fn func(map[string]any)) []byte {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	fn(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOracleFlagsDoctoredAnswers(t *testing.T) {
	def, _ := workloadByName("mixed-rw")
	c := mustGenerate(t, def, 1)
	ref, err := c.newRepo()
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(ref)
	public := users[0]

	// A provenance answer at the public level with a redacted item whose
	// attribute the policy protects.
	var prov answer
	var protectedItem string
search:
	for si, spec := range c.specs {
		for ei, e := range c.execs[si] {
			for _, item := range c.itemIDs[si][ei] {
				if c.pols[si].CanSeeData(public.Level, e.Items[item].Attr) {
					continue
				}
				status, body := serveInProcess(h, "/api/v1/provenance?spec="+spec.ID+"&exec="+e.ID+"&item="+item, public.Name)
				if status != http.StatusOK {
					continue
				}
				prov = answer{kind: kProvenance, level: int(public.Level), body: body}
				protectedItem = item
				break search
			}
		}
	}
	if protectedItem == "" {
		t.Fatal("no provenance answer with a protected item at the public level")
	}
	if n, err := c.checkAnswer(prov); err != nil || n != 0 {
		t.Fatalf("genuine provenance answer: %d leaks, error %v", n, err)
	}
	prov.body = doctor(t, prov.body, func(v map[string]any) {
		items := v["provenance"].(map[string]any)["items"].(map[string]any)
		delete(items[protectedItem].(map[string]any), "redacted")
	})
	if n, err := c.checkAnswer(prov); err != nil || n == 0 {
		t.Errorf("unredacted protected item: %d leaks, error %v; want a leak", n, err)
	}

	// A search answer at the public level, doctored to show a module
	// the policy hides from it and a workflow outside its access view.
	var moduleSpec, hiddenModule, workflowSpec, hiddenWorkflow string
	for si, spec := range c.specs {
		for m, lvl := range c.pols[si].ModuleLevels {
			if lvl > public.Level && hiddenModule == "" {
				moduleSpec, hiddenModule = spec.ID, m
			}
		}
		access := c.pols[si].AccessView(c.hiers[si], public.Level)
		for _, wid := range spec.WorkflowIDs() {
			if !access.Contains(wid) && hiddenWorkflow == "" {
				workflowSpec, hiddenWorkflow = spec.ID, wid
			}
		}
	}
	if hiddenModule == "" || hiddenWorkflow == "" {
		t.Fatal("corpus has no module or workflow hidden from the public level")
	}
	status, body := serveInProcess(h, "/api/v1/search?q=genome", public.Name)
	if status != http.StatusOK {
		t.Fatalf("search: status %d", status)
	}
	srch := answer{kind: kSearch, level: int(public.Level), body: body}
	if n, err := c.checkAnswer(srch); err != nil || n != 0 {
		t.Fatalf("genuine search answer: %d leaks, error %v", n, err)
	}
	for _, tc := range []struct {
		name string
		hit  map[string]any
	}{
		{"hidden module", map[string]any{"spec": moduleSpec, "prefix": []any{}, "matches": []any{map[string]any{"module": hiddenModule}}}},
		{"prefix outside access view", map[string]any{"spec": workflowSpec, "prefix": []any{hiddenWorkflow}, "matches": []any{}}},
	} {
		bad := srch
		bad.body = doctor(t, body, func(v map[string]any) {
			hits, _ := v["hits"].([]any)
			v["hits"] = append(hits, tc.hit)
		})
		if n, err := c.checkAnswer(bad); err != nil || n == 0 {
			t.Errorf("%s: %d leaks, error %v; want a leak", tc.name, n, err)
		}
	}

	bad := srch
	bad.body = []byte(`{"hits": [`)
	if _, err := c.checkAnswer(bad); err == nil {
		t.Error("truncated body passed the oracle")
	}
}

func TestVerdict(t *testing.T) {
	seq := func(base, step float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, base+step*float64(i%5))
		}
		return xs
	}
	parent := seq(100, 1) // median 102, quartile distance 3
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		bound  float64
		want   string
	}{
		{"faster everywhere", seq(80, 1), "lower", 0.1, improved},
		{"same", seq(100, 1), "lower", 0.1, noWorse},
		{"slower within bound", seq(105, 1), "lower", 0.1, noWorse},
		{"slower beyond bound", seq(120, 1), "lower", 0.1, worse},
		{"higher is better", seq(120, 1), "higher", 0.1, improved},
		{"spread above bound", seq(102, 1), "lower", 0.01, unresolved},
	} {
		if got, _ := verdict(parent, tc.change, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and end-to-end
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	got := endToEnd(nil, 0, phase{dur: time.Second}, phase{dur: time.Second})
	if len(got) != len(bench.EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bench.EndToEnd), len(got))
	}
	for i, m := range bench.EndToEnd {
		if m.Name != got[i].name || m.Unit != got[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, got[i].name, got[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || math.IsNaN(m.Bound) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
