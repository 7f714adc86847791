// Command perfbench is provpriv's end-to-end benchmark. It generates a
// workload's specs, policies, executions and users from a seed, starts
// the real provserve binary on that data as an operator would, drives
// it over loopback HTTP with a closed-loop and an open-loop phase, and
// checks every answer for privacy leaks and against the in-process
// repository. With -trace 1 it also replays the same request stream
// in process through each layer's public functions and reports
// per-layer metrics. See README.md.
//
//	perfbench -provserve BIN -work DIR --workload masked-read --seed 1 --seconds 10 --trace 0
//	perfbench compare PARENT_DIR CHANGE_DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "measured seconds per run (warm-up, closed loop and open loop)")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced in-process run, 0 end-to-end metrics")
	bin := fs.String("provserve", "", "provserve binary")
	work := fs.String("work", "", "scratch directory for data, tokens and logs")
	fs.Parse(os.Args[1:])
	// The driver keeps the corpus and every distinct answer in memory;
	// a larger GC target keeps its collections from competing with
	// provserve for the cores while it is being measured.
	debug.SetGCPercent(400)
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -provserve, -work, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	defs := workloads
	if *name != "all" {
		def, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want all or one of %s)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		defs = []workloadDef{def}
	}
	// Every provserve this process starts is killed on the way out,
	// including on SIGINT/SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()
	code := 0
	for _, def := range defs {
		out, err := runWorkload(def, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work})
		killAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
			code = 1
			continue
		}
		out.print(def.name, *trace == 1)
		if !out.correct {
			fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed:\n  %s\n", def.name, strings.Join(out.problems, "\n  "))
			code = 1
		}
	}
	os.Exit(code)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	bin     string
	work    string
}

// metric is one reported figure.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// outcome is one workload run's report.
type outcome struct {
	digest            string // of the open-loop stream's first 1000 requests
	correct           bool
	problems          []string
	attempted, failed int
	endToEnd          []metric // the BENCHMARK.json end-to-end metrics
	printed           []metric // figures printed but not in the JSON
	perLayer          []metric
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) print(workload string, trace bool) {
	fmt.Printf("workload %s: stream %.16s, attempted %d, failed %d, correct %v\n", workload, o.digest, o.attempted, o.failed, o.correct)
	shown := o.endToEnd
	if trace {
		shown = o.perLayer
	}
	for _, group := range [][]metric{shown, o.printed} {
		for _, m := range group {
			fmt.Printf("  %-36s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, m := range shown {
		ms[m.name] = jm{m.value, m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": o.correct, "attempted": o.attempted, "failed": o.failed, "metrics": ms,
	})
	fmt.Println(string(line))
}

// running tracks the provserve processes this process started, from
// exec until they are killed, for the signal handler.
var (
	runningMu sync.Mutex
	running   = map[*proc]bool{}
)

func track(s *proc) {
	runningMu.Lock()
	defer runningMu.Unlock()
	running[s] = true
}

// stop kills s and forgets it.
func stop(s *proc) {
	s.kill()
	runningMu.Lock()
	defer runningMu.Unlock()
	delete(running, s)
}

func killAll() {
	runningMu.Lock()
	defer runningMu.Unlock()
	for s := range running {
		s.kill()
		delete(running, s)
	}
}

// Set-up time is the median of several starts of provserve on the
// fresh data dir, recovery time the median of several SIGKILL-and-
// restart cycles: at least minStarts each, and more until they have
// taken startBudget, so that a start of a few tens of milliseconds is
// measured often enough for its median to hold still.
const (
	minStarts   = 5
	maxStarts   = 60
	startBudget = 3 * time.Second
)

// enoughStarts reports whether the starts timed so far suffice.
func enoughStarts(took []float64) bool {
	total := 0.0
	for _, t := range took {
		total += t
	}
	return len(took) >= maxStarts || (len(took) >= minStarts && total >= startBudget.Seconds())
}

// phases splits a run's measured seconds into warm-up (15%), closed
// loop (40%) and open loop (45%). The closed loop is long enough to
// hold several of provserve's garbage-collection cycles on masked-read,
// so whether one more falls inside it moves throughput little.
func phases(seconds int) (warm, closed, open time.Duration) {
	total := time.Duration(seconds) * time.Second
	warm, closed = total*15/100, total*40/100
	return warm, closed, total - warm - closed
}

func runWorkload(def workloadDef, cfg runConfig) (*outcome, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", def.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := generate(def, cfg.seed)
	if err != nil {
		return nil, err
	}
	data := filepath.Join(dir, "data")
	if _, err := c.write(data); err != nil {
		return nil, err
	}
	creds := newCreds(cfg.seed)
	scfg := serverConfig{bin: cfg.bin, data: data, audit: filepath.Join(dir, "audit"),
		tokens: filepath.Join(dir, "tokens"), logDir: dir}
	if err := writeTokenFile(scfg.tokens, creds); err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	ownerReader := creds[credIndex(len(users)-1, roleReader)].header

	var setups []float64
	var srv *proc
	runtime.GC()
	for srv == nil {
		s, took, err := startServer(scfg, hc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if enoughStarts(setups) {
			srv = s
		} else {
			stop(s)
		}
	}
	started, err := srv.scrape(hc, ownerReader)
	if err != nil {
		return nil, err
	}

	d := &driver{hc: hc, base: srv.base, creds: creds}
	warmDur, closedDur, openDur := phases(cfg.seconds)
	warm := d.closedLoop(newStream(c, "warm", def.closedMix()), warmDur)
	runtime.GC()
	before, err := srv.scrape(hc, ownerReader)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	closed := d.closedLoop(newStream(c, "closed", def.closedMix()), closedDur)
	cpuAfter, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	closed.cpu = cpuAfter - cpuBefore
	open := d.openLoop(newStream(c, "open", def.mix), def.rate, openDur)
	after, err := srv.scrape(hc, ownerReader)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	out := &outcome{digest: streamDigest(c, "open", def.mix, 1000)}
	all := append(append(append([]*recorder{}, warm.recs...), closed.recs...), open.recs...)

	// Durability and recovery: SIGKILL, restart on the same directory,
	// time until ready; after the first restart every execution
	// acknowledged before the last acknowledged save must be listed.
	durable := durableWrites(all)
	var recoveries []float64
	var recovered scrape
	runtime.GC()
	for i := 0; !enoughStarts(recoveries); i++ {
		stop(srv)
		s, took, err := startServer(scfg, hc)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		srv = s
		recoveries = append(recoveries, took.Seconds())
		if i == 0 {
			if recovered, err = srv.scrape(hc, ownerReader); err != nil {
				return nil, err
			}
			if missing, err := missingExecutions(hc, srv, ownerReader, durable); err != nil {
				return nil, err
			} else if len(missing) > 0 {
				out.problem("durability: %d of %d executions acknowledged before the last save are lost after restart, e.g. %s",
					len(missing), len(durable), missing[0])
			}
		}
	}
	stop(srv)

	ref, err := c.newRepo()
	if err != nil {
		return nil, err
	}
	out.check(c, ref, all)
	rejected := sumDelta(started, after, "provpriv_limit_rejected_")
	if rejected > 0 {
		out.problem("limit: %v requests rejected by admission control", rejected)
	}
	out.correct = len(out.problems) == 0 && out.failed == 0

	timed := append(append([]*recorder{}, closed.recs...), open.recs...)
	out.endToEnd = endToEnd(setups, rss, closed, open)
	out.printed = printedMetrics(recoveries, open, timed)
	if cfg.trace {
		pl, err := perLayer(c, def, cfg, dir, creds, timed, open.recs, started, before, after, recovered)
		if err != nil {
			return nil, err
		}
		out.perLayer = pl
	}
	return out, nil
}

// durableWrites lists the executions acknowledged before the last
// acknowledged save was sent: the save must have persisted them.
func durableWrites(recs []*recorder) []string {
	var lastSave time.Time
	for _, rec := range recs {
		for _, r := range rec.results {
			if r.kind == kSave && r.status == http.StatusOK && r.sent.After(lastSave) {
				lastSave = r.sent
			}
		}
	}
	var out []string
	for _, rec := range recs {
		for _, r := range rec.results {
			if r.kind == kWrite && r.status == http.StatusCreated && r.acked.Before(lastSave) {
				out = append(out, r.req.spec+"/"+r.req.exec)
			}
		}
	}
	return out
}

// missingExecutions returns the ids in want that GET /api/v1/specs does
// not list.
func missingExecutions(hc *http.Client, srv *proc, authz string, want []string) ([]string, error) {
	body, err := srv.get(hc, "/api/v1/specs", authz)
	if err != nil {
		return nil, err
	}
	var listing struct {
		Specs []struct {
			ID         string   `json:"id"`
			Executions []string `json:"executions"`
		} `json:"specs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return nil, fmt.Errorf("decode specs listing: %w", err)
	}
	have := map[string]bool{}
	for _, s := range listing.Specs {
		for _, e := range s.Executions {
			have[s.ID+"/"+e] = true
		}
	}
	var missing []string
	for _, id := range want {
		if !have[id] {
			missing = append(missing, id)
		}
	}
	return missing, nil
}
