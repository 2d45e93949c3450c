package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie strictly above the p-th percentile's
// rank — the samples the tail figure rests on.
func beyond(n int, p float64) int { return n - rankOf(n, p) }

// tailOK is the tail rule: a tail percentile is reportable only when at
// least ten samples lie beyond it, and it must sit above the median.
func tailOK(n int, p float64) bool { return p > 50 && beyond(n, p) >= 10 }

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// procStatus reads a field in kB from /proc/<pid>/status (e.g. "VmHWM").
func procStatus(pid int, field string) (kb int64, err error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseStatusField(f, field)
}

// parseStatusField extracts "<field>:   1234 kB" from a status file.
func parseStatusField(r io.Reader, field string) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		fs := strings.Fields(rest)
		if len(fs) == 0 {
			break
		}
		return strconv.ParseInt(fs[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("status has no %s field", field)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time of pid in milliseconds.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU reads utime+stime (fields 14 and 15) from a /proc stat line.
// The command name (field 2) is parenthesised and may hold spaces, so the
// fields are counted from its closing parenthesis.
func parseStatCPU(line string) (float64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat line has no command field")
	}
	fs := strings.Fields(line[i+1:])
	// fs[0] is field 3 (state), so field k is fs[k-3].
	if len(fs) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command", len(fs))
	}
	ut, err := strconv.ParseInt(fs[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseInt(fs[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(ut+st) * 1000 / clockTicks, nil
}

// memStats is the subset of runtime.MemStats the benchmark reports.
// PauseNs is the runtime's circular buffer of recent GC pauses, indexed by
// (NumGC+255)%256 for the most recent one; PauseTotalNs is set only on a
// difference of two readings (see sub).
type memStats struct {
	TotalAlloc   uint64
	HeapInuse    uint64
	NumGC        uint64
	PauseTotalNs uint64
	PauseNs      [256]uint64
}

// sub returns the change from o to m: allocation, collections and their
// pause time between the two readings, and m's heap in use. The pause
// time comes from the circular buffer; when more than 256 collections
// happened in between, the buffer's mean pause stands in for the ones it
// no longer holds.
func (m memStats) sub(o memStats) memStats {
	d := memStats{
		TotalAlloc: m.TotalAlloc - o.TotalAlloc,
		HeapInuse:  m.HeapInuse,
		NumGC:      m.NumGC - o.NumGC,
	}
	if d.NumGC > 0 {
		kept := d.NumGC
		if kept > 256 {
			kept = 256
		}
		var sum uint64
		for k := uint64(0); k < kept; k++ {
			sum += m.PauseNs[(m.NumGC-k+255)%256]
		}
		d.PauseTotalNs = sum * d.NumGC / kept
	}
	return d
}

func (m memStats) add(o memStats) memStats {
	return memStats{
		TotalAlloc:   m.TotalAlloc + o.TotalAlloc,
		HeapInuse:    m.HeapInuse + o.HeapInuse,
		NumGC:        m.NumGC + o.NumGC,
		PauseTotalNs: m.PauseTotalNs + o.PauseTotalNs,
	}
}

// parseHeapProfile reads the runtime.MemStats trailer that
// /debug/pprof/heap?debug=1 appends ("# TotalAlloc = 123" lines, and
// "# PauseNs = [1 2 ...]" for the recent pauses). The trailer carries no
// PauseTotalNs; sub derives pause time from PauseNs.
func parseHeapProfile(r io.Reader) (memStats, error) {
	var m memStats
	found := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		name, val, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		if name == "PauseNs" {
			fs := strings.Fields(strings.Trim(strings.TrimSpace(val), "[]"))
			if len(fs) != len(m.PauseNs) {
				return memStats{}, fmt.Errorf("heap profile PauseNs has %d entries", len(fs))
			}
			for i, f := range fs {
				v, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return memStats{}, fmt.Errorf("heap profile PauseNs: %w", err)
				}
				m.PauseNs[i] = v
			}
			found++
			continue
		}
		var dst *uint64
		switch name {
		case "TotalAlloc":
			dst = &m.TotalAlloc
		case "HeapInuse":
			dst = &m.HeapInuse
		case "NumGC":
			dst = &m.NumGC
		default:
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return memStats{}, fmt.Errorf("heap profile %s: %w", name, err)
		}
		*dst = v
		found++
	}
	if err := sc.Err(); err != nil {
		return memStats{}, err
	}
	if found < 4 {
		return memStats{}, fmt.Errorf("heap profile carries %d of 4 MemStats fields", found)
	}
	return m, nil
}

// parseMetrics reads Prometheus text exposition into "name{labels}" →
// value, skipping comments.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
