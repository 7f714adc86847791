package main

import (
	"bytes"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"provpriv/internal/repo"
	"provpriv/internal/server"
)

// failedResult reports a request that failed outright: a transport
// error, a 5xx, a refusal by admission control (429, 503), a rejected
// credential (401), or a mutation that did not succeed. A read's other
// 4xx answers are checked against the in-process repository instead.
func failedResult(r result) bool {
	switch {
	case r.err, r.status >= 500, r.status == http.StatusTooManyRequests, r.status == http.StatusUnauthorized:
		return true
	case r.kind == kWrite:
		return r.status != http.StatusCreated
	case !r.kind.read():
		return r.status != http.StatusOK
	}
	return r.status != http.StatusOK && r.status < 400
}

// check counts attempted and failed requests, runs the leak oracle on
// every distinct answer and compares the sampled answers, and every
// refused read, with the in-process repository's answer to the same
// request.
func (o *outcome) check(c *corpus, ref *repo.Repository, recs []*recorder) {
	answers := map[uint64]answer{}
	var sampled []sampledAnswer
	for _, rec := range recs {
		for _, r := range rec.results {
			o.attempted++
			if failedResult(r) {
				o.failed++
				if o.failed <= 3 {
					o.problem("request failed: %s %s: status %d, transport error %v", r.req.method, r.req.target, r.status, r.err)
				}
			}
		}
		maps.Copy(answers, rec.answers)
		sampled = append(sampled, rec.sampled...)
	}
	leaks := 0
	for _, a := range answers {
		n, err := c.checkAnswer(a)
		if err != nil {
			o.problem("malformed %s answer: %v", a.kind, err)
			continue
		}
		leaks += n
	}
	if leaks > 0 {
		o.problem("leak oracle: %d violations in %d distinct answers", leaks, len(answers))
	}

	// The reference serves the same routes in trusted-header mode. Reads
	// never touch the specs that take posted executions, and a policy
	// replacement re-installs the same policy, so every answer must be
	// the reference's.
	h := server.New(ref)
	mismatches := 0
	for _, s := range sampled {
		status, body := serveInProcess(h, s.req.target, s.req.user)
		same := status == s.status
		if same && status == http.StatusOK {
			same = bytes.Equal(body, s.body)
		}
		if !same {
			mismatches++
			if mismatches <= 3 {
				o.problem("answer differs from the in-process repository: %s as %s: status %d, want %d", s.req.target, s.req.user, s.status, status)
			}
			if s.status != http.StatusOK {
				o.failed++
			}
		}
	}
	if mismatches > 0 {
		o.problem("%d of %d compared answers differ from the in-process repository", mismatches, len(sampled))
	}
}

// serveInProcess sends GET target as the trusted-header principal user
// through h and returns the status and body.
func serveInProcess(h http.Handler, target, user string) (int, []byte) {
	req := httptest.NewRequest("GET", target, nil)
	req.Header.Set("X-Prov-User", user)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// phase is one timed phase of a run.
type phase struct {
	recs []*recorder
	dur  time.Duration
	cpu  time.Duration // provserve's CPU time during the phase
}

func (p phase) each(fn func(result)) {
	for _, rec := range p.recs {
		for _, r := range rec.results {
			fn(r)
		}
	}
}

// latencies returns the open loop's latencies, timed from due time, of
// the requests keep selects.
func latencies(open phase, keep func(result) bool) []float64 {
	var lat []float64
	open.each(func(r result) {
		if keep(r) {
			lat = append(lat, ms(r.latency))
		}
	})
	return lat
}

// endToEnd computes the BENCHMARK.json end-to-end metrics.
func endToEnd(setups []float64, rssMB float64, closed, open phase) []metric {
	ok := 0
	closed.each(func(r result) {
		if !failedResult(r) {
			ok++
		}
	})
	lat := latencies(open, func(result) bool { return true })
	return []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"throughput_rps", float64(ok) / closed.dur.Seconds(), "1/s", ok},
		{"cpu_us_per_req", ratio(us(closed.cpu), float64(ok)), "us", ok},
		{"latency_p50_ms", percentile(lat, 50), "ms", len(lat)},
		{"peak_rss_mb", rssMB, "MB", 1},
	}
}

// printedMetrics are the recovery time, the open loop's tail and
// per-route latencies and the failure ratio. They are printed for
// reading but are not part of the JSON result: a route's figures exist
// only on the workloads that send it, and the others did not repeat
// between runs on the 2-core reference host (see README.md).
func printedMetrics(recoveries []float64, open phase, timed []*recorder) []metric {
	all := latencies(open, func(result) bool { return true })
	out := []metric{
		{"recovery_s", median(recoveries), "s", len(recoveries)},
		{"latency_p90_ms", percentile(all, 90), "ms", len(all)},
		{"latency_p99_ms", percentile(all, 99), "ms", len(all)},
	}
	for _, g := range []struct {
		name  string
		kinds []kind
	}{
		{"search", []kind{kSearch}},
		{"query", []kind{kSpecQuery, kExecQuery}},
		{"provenance", []kind{kProvenance}},
		{"write", []kind{kWrite, kPolicy}},
		{"save", []kind{kSave}},
	} {
		lat := latencies(open, func(r result) bool { return slices.Contains(g.kinds, r.kind) })
		if len(lat) == 0 {
			continue
		}
		out = append(out, metric{g.name + "_p50_ms", percentile(lat, 50), "ms", len(lat)})
		// p99 is shown where at least ten samples lie beyond it.
		if len(lat) >= 1000 {
			out = append(out, metric{g.name + "_p99_ms", percentile(lat, 99), "ms", len(lat)})
		}
	}
	attempted, failed := 0, 0
	for _, rec := range timed {
		for _, r := range rec.results {
			attempted++
			if failedResult(r) {
				failed++
			}
		}
	}
	return append(out, metric{"failed_ratio", ratio(float64(failed), float64(attempted)), "ratio", attempted})
}
