package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// Verdicts of one (metric, workload) comparison.
const (
	improved   = "improved"
	noWorse    = "no-worse"
	worse      = "WORSE"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// verdict applies the rule for a gain or a regression to one metric's
// runs. parent and change are in run order, so parent[i] and change[i]
// form a pair. better is "lower" or "higher"; bound is the share of
// the parent's median by which the change may be worse.
//
//   - improved: at least minPairs pairs, the change wins at least nine
//     tenths of them (ties count for neither), and the medians differ
//     in its favour by more than the parent's quartile distance;
//   - unresolved: the parent's own spread (quartile distance over
//     median) is wider than the bound, unless every change run reads
//     better than every parent run;
//   - no-worse: the change's median is worse than the parent's by at
//     most the bound; otherwise WORSE.
//
// It also returns the change of the median as a share of the parent's,
// positive when the change reads better.
func verdict(parent, change []float64, better string, bound float64) (string, float64) {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	pm, cm := median(append([]float64(nil), parent...)), median(append([]float64(nil), change...))
	gain := 0.0
	if pm != 0 {
		gain = sign * (cm - pm) / math.Abs(pm)
	}
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	var spread, iqr float64
	if len(parent) >= 2 {
		q1, q3 := quartiles(append([]float64(nil), parent...))
		iqr = q3 - q1
		spread = relIQR(parent)
	}
	if pairs >= minPairs && float64(wins) >= 0.9*float64(pairs) && sign*(cm-pm) > iqr {
		return improved, gain
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && !allBetter:
		return unresolved, gain
	case -gain <= bound:
		return noWorse, gain
	}
	return worse, gain
}

// readRuns reads a directory of <workload>.jsonl files, one run result
// per line, into workload → metric → values in run order.
func readRuns(dir string, names []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, w := range names {
		f, err := os.Open(filepath.Join(dir, w+".jsonl"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		vals := map[string][]float64{}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var r runResult
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", f.Name(), err)
			}
			if !r.Correct {
				f.Close()
				return nil, fmt.Errorf("%s: a run reports correct=false", f.Name())
			}
			for name, m := range r.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
		out[w] = vals
	}
	return out, nil
}

// compareMain compares two sets of runs, parent and change, and prints
// one row per workload with a verdict per end-to-end metric. It exits
// 1 when any metric is WORSE.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metrics and bounds")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] PARENT_DIR CHANGE_DIR\n"+
			"Each directory holds <workload>.jsonl with the last output line of each run, in run order.")
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	parent, err := readRuns(fs.Arg(0), names)
	if err == nil {
		var change map[string]map[string][]float64
		if change, err = readRuns(fs.Arg(1), names); err == nil {
			return printComparison(bench, names, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func printComparison(bench benchmarkFile, names []string, parent, change map[string]map[string][]float64) int {
	code := 0
	fmt.Printf("%-14s", "workload")
	for _, m := range bench.EndToEnd {
		fmt.Printf(" %-26s", m.Name)
	}
	fmt.Println()
	for _, w := range names {
		p, c := parent[w], change[w]
		if p == nil || c == nil {
			continue
		}
		fmt.Printf("%-14s", w)
		for _, m := range bench.EndToEnd {
			v, gain := verdict(p[m.Name], c[m.Name], m.Better, m.Bound)
			if v == worse {
				code = 1
			}
			fmt.Printf(" %-26s", fmt.Sprintf("%s %+.1f%% (n=%d/%d)", v, 100*gain, len(p[m.Name]), len(c[m.Name])))
		}
		fmt.Println()
	}
	return code
}
