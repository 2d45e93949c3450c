package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // rank 90, ten beyond
		{99, 90, false},  // rank 90, nine beyond
		{1000, 99, true}, // rank 990
		{999, 99, false}, // rank 990, nine beyond
		{200, 50, false}, // the median is not a tail
		{66, 85, false},  // rank 57, nine beyond
		{67, 85, true},   // rank 57, ten beyond
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, p%g) = %v, want %v (beyond %d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9 (nearest rank)", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

func TestParseStatus(t *testing.T) {
	status := "Name:\tprivclusterd\nVmPeak:\t  812344 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	kb, err := parseStatusField(strings.NewReader(status), "VmHWM")
	if err != nil || kb != 20480 {
		t.Fatalf("VmHWM = %d, %v; want 20480", kb, err)
	}
	if _, err := parseStatusField(strings.NewReader("Name:\tx\n"), "VmHWM"); err == nil {
		t.Fatal("missing VmHWM parsed without error")
	}
	// The benchmark's own process has a VmHWM.
	if kb, err := procStatus(os.Getpid(), "VmHWM"); err != nil || kb <= 0 {
		t.Fatalf("own VmHWM = %d, %v", kb, err)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields:
	// utime (field 14) = 250 ticks, stime (field 15) = 50 ticks.
	line := "4242 (odd (name) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 99 0 0"
	ms, err := parseStatCPU(line)
	if err != nil || ms != 3000 {
		t.Fatalf("cpu = %v ms, %v; want 3000", ms, err)
	}
	if _, err := parseStatCPU("4242 (short) S 1"); err == nil {
		t.Fatal("truncated stat line parsed without error")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
}

func heapTrailer(totalAlloc, heapInuse, numGC uint64, pauses map[int]uint64) string {
	ps := make([]string, 256)
	for i := range ps {
		ps[i] = fmt.Sprint(pauses[i])
	}
	return fmt.Sprintf("heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 1\n# TotalAlloc = %d\n"+
		"# HeapInuse = %d\n# Stack = 1 / 2\n# PauseNs = [%s]\n# NumGC = %d\n# GCCPUFraction = 0.01\n",
		totalAlloc, heapInuse, strings.Join(ps, " "), numGC)
}

func TestParseHeapProfile(t *testing.T) {
	before, err := parseHeapProfile(strings.NewReader(heapTrailer(1000, 50, 3, map[int]uint64{0: 7, 1: 8, 2: 9})))
	if err != nil {
		t.Fatal(err)
	}
	// Two more collections (the 4th and 5th, at buffer slots 3 and 4).
	after, err := parseHeapProfile(strings.NewReader(heapTrailer(5000, 70, 5, map[int]uint64{0: 7, 1: 8, 2: 9, 3: 100, 4: 200})))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	if d.TotalAlloc != 4000 || d.NumGC != 2 || d.HeapInuse != 70 || d.PauseTotalNs != 300 {
		t.Fatalf("delta = %+v", memStats{TotalAlloc: d.TotalAlloc, HeapInuse: d.HeapInuse, NumGC: d.NumGC, PauseTotalNs: d.PauseTotalNs})
	}
	if _, err := parseHeapProfile(strings.NewReader("# TotalAlloc = 5\n")); err == nil {
		t.Fatal("incomplete trailer parsed without error")
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nprivcluster_lstep_cache_total{result=\"hit\"} 12\nprivclusterd_ledger_fsync_seconds_count{op=\"reserve\"} 3\nup 1\n"
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m[`privcluster_lstep_cache_total{result="hit"}`] != 12 || m[`privclusterd_ledger_fsync_seconds_count{op="reserve"}`] != 3 || m["up"] != 1 {
		t.Fatalf("parsed %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10_000},
		{ID: 2, Parent: 1, Name: "a", Start: 1000, End: 4000},
		{ID: 3, Parent: 2, Name: "b", Start: 2000, End: 3000},
		{ID: 4, Parent: 1, Name: "c", Start: 3500, End: 6000}, // overlaps a: the two cover 5 ms of op
	}
	got := selfTimes(spans, func(span) bool { return true })
	want := map[string]float64{"op": 5, "a": 2, "b": 1, "c": 2.5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v ms, want %v", k, got[k], v)
		}
	}
}

// plantedTruth is a small planted dataset and one release on it that
// passes the check.
func plantedTruth(t *testing.T) (truth, []float64, float64) {
	t.Helper()
	pl, err := plantedPoints(7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return truth{points: pl.points}, []float64(pl.center), 2 * plantedRadius
}

func TestCorruptedReleaseFails(t *testing.T) {
	tr, center, radius := plantedTruth(t)
	o := op{Kind: "cluster", T: 1000, Seed: 1}
	good := release{Centers: [][]float64{center}, Radii: []float64{radius}}
	if err := tr.check(o, good); err != nil {
		t.Fatalf("planted ball rejected: %v", err)
	}
	far := []float64{center[0] + 0.3, center[1]}
	for name, bad := range map[string]release{
		"moved center":  {Centers: [][]float64{far}, Radii: []float64{radius}},
		"shrunk radius": {Centers: [][]float64{center}, Radii: []float64{radius / 100}},
		"nan radius":    {Centers: [][]float64{center}, Radii: []float64{nan()}},
		"wrong dim":     {Centers: [][]float64{{0.5}}, Radii: []float64{radius}},
		"no ball":       {},
	} {
		if err := tr.check(o, bad); err == nil {
			t.Errorf("%s: corrupted release passed the check", name)
		}
	}
	if err := tr.check(op{Kind: "kcover", K: 2, T: 1000}, release{}); err == nil {
		t.Error("empty 2-cover passed the check")
	}
	if err := (truth{values: interval{0.2, 0.8}}).check(op{Kind: "interior"}, release{Point: 0.9}); err == nil {
		t.Error("interior point outside the data passed the check")
	}

	// Through the client, as the timed phase records them: a corrupted
	// body, a malformed body and a budget refusal each count as a failed
	// operation, the corrupted one once its deferred check has run.
	bodies := map[string]struct {
		code int
		body string
	}{
		"corrupted": {200, fmt.Sprintf(`{"center":[%v,%v],"radius":%v}`, far[0], far[1], radius)},
		"malformed": {200, `{"center":`},
		"refused":   {429, `{"error":{"code":"budget_exhausted"}}`},
		"good":      {200, fmt.Sprintf(`{"center":[%v,%v],"radius":%v}`, center[0], center[1], radius)},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mode, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
		b := bodies[mode]
		w.WriteHeader(b.code)
		fmt.Fprint(w, b.body)
	}))
	defer srv.Close()
	rec := &recorder{}
	for _, mode := range []string{"corrupted", "malformed", "refused", "good"} {
		cl := &daemonClient{hc: srv.Client(), base: srv.URL + "/" + mode, key: "k"}
		d, check, err := daemonRequest(cl, tr, o)
		rec.done(o.Kind, d, check, err)
	}
	if rec.attempted != 4 || rec.failed != 2 || len(rec.pending) != 2 || len(rec.lat) != 0 {
		t.Fatalf("before settle: attempted %d, failed %d, pending %d, ok %d; want 4, 2, 2, 0", rec.attempted, rec.failed, len(rec.pending), len(rec.lat))
	}
	rec.settle()
	if rec.attempted != 4 || rec.failed != 3 || len(rec.lat) != 1 {
		t.Fatalf("attempted %d, failed %d, ok %d; want 4, 3, 1 (errors %q)", rec.attempted, rec.failed, len(rec.lat), rec.errs)
	}
}

func nan() float64 { var z float64; return z / z }

func TestReleaseEquality(t *testing.T) {
	a := release{Centers: [][]float64{{0.1, 0.2}}, Radii: []float64{0.3}}
	b := release{Centers: [][]float64{{0.1, 0.2}}, Radii: []float64{0.3}}
	if !a.equal(b) {
		t.Fatal("identical releases differ")
	}
	b.Centers[0][1] = 0.2000000000000001
	if a.equal(b) {
		t.Fatal("releases one ulp apart compare equal")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics requires out to report exactly the listed metrics, with
// their units.
func checkMetrics(t *testing.T, what string, out *outcome, want []struct{ Name, Unit string }) {
	t.Helper()
	var got, exp []string
	for name, m := range out.metrics {
		got = append(got, name+" "+m.Unit)
	}
	for _, m := range want {
		exp = append(exp, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if strings.Join(got, ",") != strings.Join(exp, ",") {
		t.Errorf("%s metrics\n got %v\nwant %v", what, got, exp)
	}
}

// TestSmoke runs every workload at a small size, untraced and traced, and
// checks the reported metrics against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the served binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/privclusterd", "./cmd/shardserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the served binaries: %v\n%s", err, out)
	}
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", names, workloadOrder)
	}
	for _, name := range workloadOrder {
		w := workloads[name]
		if !strings.Contains(bj.Workloads[indexOf(workloadOrder, name)].Why, fmt.Sprintf("p%g", w.tail)) {
			t.Errorf("%s: BENCHMARK.json's why does not state the tail percentile p%g", name, w.tail)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := config{workload: name, seed: 3, seconds: 1, trace: traced, bin: bin,
					work: t.TempDir(), scale: 0.2, setups: 2, spans: filepath.Join(t.TempDir(), "spans.json")}
				start := time.Now()
				var out *outcome
				var err error
				if traced {
					out, err = runTraced(cfg, w)
				} else {
					out, err = runDaemon(cfg, w)
				}
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s in %v:\n%s", name, time.Since(start), strings.Join(out.lines, "\n"))
				if !out.correct || out.failed != 0 || out.attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", out.correct, out.attempted, out.failed)
				}
				if traced {
					checkMetrics(t, "per-layer", out, bj.PerLayer)
					if _, err := os.Stat(cfg.spans); err != nil {
						t.Fatalf("no span file: %v", err)
					}
				} else {
					checkMetrics(t, "end-to-end", out, bj.EndToEnd)
				}
			})
		}
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
