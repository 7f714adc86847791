package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Roles of the token file, indexed like auth.Role.
const (
	roleReader = iota
	roleWriter
	roleAdmin
	nRoles
)

var roleNames = [nRoles]string{"reader", "writer", "admin"}

// cred is one bearer token: a repository user at one role.
type cred struct {
	name, user, role, secret string
	header                   string // "Bearer <secret>"
}

// credIndex locates the token of user level lvl at role role in creds.
func credIndex(lvl, role int) int { return lvl*nRoles + role }

// newCreds mints a reader, writer and admin token for each of the four
// users, with secrets drawn from the run seed.
func newCreds(seed int64) []cred {
	rng := rand.New(rand.NewSource(seed))
	out := make([]cred, 0, len(users)*nRoles)
	for _, u := range users {
		for _, role := range roleNames {
			b := make([]byte, 32)
			rng.Read(b)
			secret := hex.EncodeToString(b)
			out = append(out, cred{name: u.Name + "-" + role, user: u.Name, role: role,
				secret: secret, header: "Bearer " + secret})
		}
	}
	return out
}

// writeTokenFile writes creds in the internal/auth token-file format.
func writeTokenFile(path string, creds []cred) error {
	var b strings.Builder
	for _, c := range creds {
		sum := sha256.Sum256([]byte(c.secret))
		fmt.Fprintf(&b, "%s:%s:%s:%s\n", c.name, c.role, c.user, hex.EncodeToString(sum[:]))
	}
	return os.WriteFile(path, []byte(b.String()), 0o600)
}

// serverConfig is how the benchmark runs provserve: as an operator
// would, with tokens, an audit log, a save dir, rate limits far above
// the offered load and default trace sampling.
type serverConfig struct {
	bin, data, audit, tokens, logDir string
}

// proc is one running provserve process.
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs provserve and waits until /readyz answers 200,
// returning the time from exec to ready.
func startServer(cfg serverConfig, hc *http.Client) (*proc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.OpenFile(filepath.Join(cfg.logDir, "provserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	// Rate limits far above the offered load: admission control runs
	// on every request but never refuses one.
	const unlimited = "1000000"
	cmd := exec.Command(cfg.bin,
		"-data", cfg.data, "-addr", addr,
		"-token-file", cfg.tokens, "-audit-log", cfg.audit, "-save-dir", cfg.data,
		"-rate-reader", unlimited, "-rate-writer", unlimited, "-rate-admin", unlimited,
		"-rate-burst", unlimited, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start provserve: %w", err)
	}
	s := &proc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(s.done) }()
	track(s)
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			stop(s)
			return nil, 0, fmt.Errorf("provserve exited before ready: %s", logTail(logf.Name()))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			stop(s)
			return nil, 0, fmt.Errorf("provserve not ready after 60s")
		}
	}
}

// logTail returns the end of a provserve log, for error messages: the
// run's directory is removed when the run ends.
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// kill SIGKILLs the process and waits for it to exit.
func (s *proc) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// peakRSSMB reads the process's VmHWM.
func (s *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat on Linux.
const userHZ = 100

// cpuTime reads the process's user plus system CPU time.
func (s *proc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name, in parentheses, may hold spaces; fields after
	// it are space-separated, utime and stime being the 12th and 13th.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %w", s.cmd.Process.Pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// scrape is one reading of the program's always-on counters.
type scrape struct {
	metrics map[string]float64 // /metrics series, keyed by name{labels}
	stats   map[string]any     // /api/v1/stats
}

func (s *proc) get(hc *http.Client, path, authz string) ([]byte, error) {
	req, err := http.NewRequest("GET", s.base+path, nil)
	if err != nil {
		return nil, err
	}
	if authz != "" {
		req.Header.Set("Authorization", authz)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

func (s *proc) scrape(hc *http.Client, authz string) (scrape, error) {
	m, err := s.get(hc, "/metrics", "")
	if err != nil {
		return scrape{}, err
	}
	st, err := s.get(hc, "/api/v1/stats", authz)
	if err != nil {
		return scrape{}, err
	}
	out := scrape{metrics: parseMetrics(string(m))}
	if err := json.Unmarshal(st, &out.stats); err != nil {
		return scrape{}, fmt.Errorf("decode stats: %w", err)
	}
	return out, nil
}

// parseMetrics reads the Prometheus text format into series → value.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta is after − before of one /metrics series.
func delta(before, after scrape, series string) float64 {
	return after.metrics[series] - before.metrics[series]
}

// sumDelta adds the deltas of every series whose name starts with
// prefix and contains all of the given substrings.
func sumDelta(before, after scrape, prefix string, contains ...string) float64 {
	total := 0.0
next:
	for series, v := range after.metrics {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		for _, c := range contains {
			if !strings.Contains(series, c) {
				continue next
			}
		}
		total += v - before.metrics[series]
	}
	return total
}
