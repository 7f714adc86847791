package main

import (
	"bytes"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
	"time"
)

// clients is the number of concurrent connections and goroutines the
// driver uses: the 2 cores of the reference host.
const clients = 2

// sampleEvery picks the fixed sample of read requests whose answers are
// compared with the in-process repository: every request whose stream
// index is a multiple of it.
const sampleEvery = 16

// result is one completed request.
type result struct {
	kind   kind
	status int
	err    bool // transport error or unreadable body
	// latency is from due time (open loop) or send time (closed loop)
	// to the last body byte; service excludes the open-loop lag.
	latency, service, lag time.Duration
	// due, sent and acked place the request on the wall clock: due is
	// when it was scheduled (the send time in a closed loop).
	due, sent, acked time.Time
	req              *request
}

// answer is one distinct response body, kept for the leak oracle.
type answer struct {
	kind  kind
	level int
	body  []byte
}

// recorder collects one client goroutine's results.
type recorder struct {
	results []result
	answers map[uint64]answer
	// sampled keeps the answers of the fixed reference sample and of
	// every read not answered 200, for comparison with the in-process
	// repository.
	sampled []sampledAnswer
}

type sampledAnswer struct {
	req    *request
	status int
	body   []byte
}

var hashSeed = maphash.MakeSeed()

// driver sends generated requests to one provserve.
type driver struct {
	hc    *http.Client
	base  string
	creds []cred
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// do sends one request and records its outcome; due is when it was
// scheduled (zero in a closed loop).
func (d *driver) do(rec *recorder, r *request, due time.Time) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	res := result{kind: r.kind, due: due, sent: sent, lag: sent.Sub(due), req: r}
	hr, err := http.NewRequest(r.method, d.base+r.target, body)
	if err != nil {
		res.err = true
		rec.results = append(rec.results, res)
		return
	}
	hr.Header.Set("Authorization", d.creds[r.cred].header)
	if r.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(hr)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		res.status = resp.StatusCode
	}
	end := time.Now()
	res.latency, res.service, res.acked = end.Sub(due), end.Sub(sent), end
	if err != nil {
		res.err = true
	}
	rec.results = append(rec.results, res)
	if res.err {
		return
	}
	if r.kind.read() && res.status == http.StatusOK {
		h := maphash.Bytes(hashSeed, data) ^ uint64(r.kind)<<56 ^ uint64(r.level)<<48
		if _, seen := rec.answers[h]; !seen {
			rec.answers[h] = answer{kind: r.kind, level: int(r.level), body: data}
		}
	}
	if r.kind.read() && (r.idx%sampleEvery == 0 || res.status != http.StatusOK) {
		rec.sampled = append(rec.sampled, sampledAnswer{req: r, status: res.status, body: data})
	}
}

// source hands out a stream's requests to concurrent clients in
// stream order.
type source struct {
	mu sync.Mutex
	s  *stream
}

func (src *source) next() *request {
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.s.next()
}

// closedLoop runs clients back-to-back senders for dur.
func (d *driver) closedLoop(s *stream, dur time.Duration) phase {
	src := &source{s: s}
	end := time.Now().Add(dur)
	recs := d.run(func(rec *recorder) {
		for time.Now().Before(end) {
			d.do(rec, src.next(), time.Time{})
		}
	})
	return phase{recs: recs, dur: dur}
}

// dueAt is the scheduled send time of request i of an open loop that
// starts at start and offers rate requests per second.
func dueAt(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// openLoop offers rate requests per second for dur. Each request is due
// at a fixed time whether or not earlier ones have finished; a request
// is timed from when it was due, so a stall also counts against the
// requests queued behind it, and lag records how late it was sent.
func (d *driver) openLoop(s *stream, rate float64, dur time.Duration) phase {
	n := int(rate * dur.Seconds())
	var mu sync.Mutex
	next := 0
	start := time.Now().Add(5 * time.Millisecond)
	recs := d.run(func(rec *recorder) {
		for {
			mu.Lock()
			i := next
			next++
			var r *request
			if i < n {
				r = s.next()
			}
			mu.Unlock()
			if r == nil {
				return
			}
			due := dueAt(start, rate, i)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			d.do(rec, r, due)
		}
	})
	return phase{recs: recs, dur: dur}
}

func (d *driver) run(client func(*recorder)) []*recorder {
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = &recorder{answers: map[uint64]answer{}}
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			client(rec)
		}(recs[i])
	}
	wg.Wait()
	return recs
}
