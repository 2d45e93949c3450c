package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// child is one served process (privclusterd or shardserver) started by
// the benchmark. Its stdout is scanned for the bound addresses it prints
// and then copied to a log file; stop terminates it and waits for it.
type child struct {
	name  string
	cmd   *exec.Cmd
	addr  string // query or wire address
	admin string // admin listener (metrics, pprof)
	done  chan struct{}
	log   *os.File
}

// readyTimeout bounds how long a child may take to print its addresses.
// privclusterd parses its CSV and opens its datasets first.
const readyTimeout = 120 * time.Second

// startChild launches bin with args and waits until it has printed a line
// starting with each of addrPrefix and adminPrefix, whose last words are
// the bound addresses.
func startChild(name, bin string, args []string, logPath, addrPrefix, adminPrefix string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// A child outlives no benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, done: make(chan struct{}), log: logf}
	ready := make(chan error, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(out)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if signalled {
				continue
			}
			// The bound address is the last word of each announcing line.
			if strings.HasPrefix(line, addrPrefix) {
				c.addr = lastField(line)
			}
			if strings.HasPrefix(line, adminPrefix) {
				c.admin = lastField(line)
			}
			if c.addr != "" && c.admin != "" {
				signalled = true
				ready <- nil
			}
		}
		if !signalled {
			ready <- fmt.Errorf("%s exited before printing its addresses (log %s)", name, logPath)
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case err := <-ready:
		if err != nil {
			c.stop()
			return nil, err
		}
	case <-time.After(readyTimeout):
		c.stop()
		return nil, fmt.Errorf("%s printed no addresses within %v", name, readyTimeout)
	}
	return c, nil
}

func lastField(line string) string {
	fs := strings.Fields(line)
	if len(fs) == 0 {
		return ""
	}
	return fs[len(fs)-1]
}

// pid of the running child.
func (c *child) pid() int { return c.cmd.Process.Pid }

// stop asks the child to shut down gracefully, kills it if it has not
// exited after a few seconds, and waits for it and its output copier.
func (c *child) stop() {
	if c == nil || c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
	exited := make(chan struct{})
	go func() {
		<-c.done
		c.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-exited
	}
	c.log.Close()
}

// memStats reads the child's runtime.MemStats from its pprof listener.
func (c *child) memStats(hc *http.Client) (memStats, error) {
	resp, err := hc.Get("http://" + c.admin + "/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return memStats{}, fmt.Errorf("%s heap profile: %s", c.name, resp.Status)
	}
	return parseHeapProfile(resp.Body)
}

// metrics scrapes a Prometheus endpoint.
func scrape(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return parseMetrics(resp.Body)
}

// principal is one API-key identity of the generated daemon config.
type principal struct {
	Name    string  `json:"name"`
	APIKey  string  `json:"api_key"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// Budget grants: every query asks for (ε, δ) = (queryEpsilon, queryDelta),
// and each principal's grant covers far more queries than a run can issue
// (δ admits 10⁶ queries; a batch costs four), so a budget refusal (429)
// can only mean an accounting fault and is counted as a failure.
const (
	queryEpsilon = 1.0
	queryDelta   = 1e-7
	grantEpsilon = 1e7
	grantDelta   = 0.1
)

func principals(n int) []principal {
	ps := make([]principal, n)
	for i := range ps {
		ps[i] = principal{
			Name:    fmt.Sprintf("client%d", i),
			APIKey:  fmt.Sprintf("perfbench-key-%d", i),
			Epsilon: grantEpsilon,
			Delta:   grantDelta,
		}
	}
	return ps
}

// daemonDataset is one dataset block of the generated daemon config.
type daemonDataset struct {
	Name    string `json:"name"`
	CSV     string `json:"csv"`
	Grid    int64  `json:"grid"`
	Mutable bool   `json:"mutable,omitempty"`
}

// startDaemon writes a privclusterd config serving datasets on loopback
// with a fresh on-disk ledger under dir, and starts the daemon. The
// requests carry per-query seeds, which the daemon honours as configured
// by default.
func startDaemon(bin, dir string, datasets []daemonDataset, clients int) (*child, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := map[string]any{
		"listen":        "127.0.0.1:0",
		"admin_listen":  "127.0.0.1:0",
		"ledger_dir":    filepath.Join(dir, "ledger"),
		"slow_query_ms": -1,
		"datasets":      datasets,
		"principals":    principals(clients),
	}
	raw, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "config.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	return startChild("privclusterd", filepath.Join(bin, "privclusterd"), []string{"-config", path},
		filepath.Join(dir, "privclusterd.log"),
		"privclusterd: serving ", "privclusterd: admin (pprof) on ")
}

// startShardServer starts one shardserver on loopback with an admin
// listener; points arrive per connection from the client.
func startShardServer(bin, dir string, i int) (*child, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return startChild(fmt.Sprintf("shardserver%d", i), filepath.Join(bin, "shardserver"),
		[]string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0"},
		filepath.Join(dir, fmt.Sprintf("shardserver%d.log", i)),
		"shardserver: listening on ", "shardserver: admin (metrics, pprof) on ")
}
