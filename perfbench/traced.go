package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"privcluster/internal/obs"
)

// The traced run (--trace 1) splits each workload's operation time across
// the program's modules from outside the program: it runs a short traced
// pass of the workload against the served processes, replays a sample of
// those operations in process through each layer's public functions with
// a span around every call, and times each layer on its own. Every
// per-layer metric is reported on every workload, computed on that
// workload's dataset.

// traceSeconds caps the traced pass of the workload.
const traceSeconds = 8

// sampleOps is how many operations of the traced pass are replayed.
const sampleOps = 16

// tracedOp is one operation of the traced pass.
type tracedOp struct {
	seq int // order in which the operation was issued
	op  op
	ms  float64
	rel release
}

func runTraced(cfg config, w *workload) (*outcome, error) {
	tr := newTracer()
	out := &outcome{correct: true}
	if err := traceServed(cfg, w, tr, out); err != nil {
		return nil, err
	}
	if err := tr.write(cfg.spans); err != nil {
		return nil, err
	}
	out.printf("spans written to %s", cfg.spans)
	return out, nil
}

// fetchTrace reads the daemon's own span tree of one request.
func fetchTrace(hc *http.Client, base, id string) ([]obs.SpanInfo, error) {
	resp, err := hc.Get(base + "/v1/trace/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: %s", id, resp.Status)
	}
	var v struct{ Spans []obs.SpanInfo }
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return v.Spans, nil
}

// programStageOf maps the benchmark's layer spans onto the program's own
// span names.
var programStageOf = map[string]string{
	"ledger.reserve":    "reserve",
	"ledger.commit":     "commit",
	"geometry.lstep":    "lstep",
	"recconcave.search": "recconcave",
	"core.goodcenter":   "center",
	"geometry.build":    "build",
}

func traceServed(cfg config, w *workload, tr *tracer, out *outcome) error {
	env, err := w.env(cfg, w)
	if err != nil {
		return err
	}
	one := cfg
	one.setups = 1
	s, _, err := setupDaemon(one, out, env.datasets, w.clients, env.warm, env.truth)
	if err != nil {
		return err
	}
	defer s.stop()
	base := "http://" + s.d.addr

	// 1. A traced pass of the workload itself, through the daemon.
	met0, err := scrape(s.hc, base+"/metrics")
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var done []tracedOp
	program := map[string]float64{} // the daemon's own span durations over the sample, ms
	procs := procSet{children: []*child{s.d}, hc: s.hc}
	dur := min(cfg.duration(), traceSeconds*time.Second)
	opSeq := 0
	ph, err := measure(procs, w.clients, dur, env.ops.next, func(c int, o op) (time.Duration, func() error, error) {
		mu.Lock()
		id := opSeq
		opSeq++
		mu.Unlock()
		root := tr.start("op/"+o.Kind, spanRef{}, id)
		rq := tr.start("daemon.request", root, id)
		start := time.Now()
		body, traceID, err := s.clients[c].do(context.Background(), o)
		d := time.Since(start)
		rq.end()
		root.end()
		if err != nil {
			return d, nil, err
		}
		rel, err := parseRelease(o, body)
		if err == nil {
			err = env.truth.check(o, rel)
		}
		if err != nil {
			return d, nil, err
		}
		if id < sampleOps {
			// The daemon keeps only its last 256 traces: read the
			// sampled operations' span trees right away.
			spans, err := fetchTrace(s.hc, base, traceID)
			if err != nil {
				return d, nil, err
			}
			mu.Lock()
			for _, si := range spans {
				program[si.Name] += float64(si.DurUS) / 1e3
			}
			mu.Unlock()
		}
		mu.Lock()
		done = append(done, tracedOp{seq: id, op: o, ms: float64(d.Nanoseconds()) / 1e6, rel: rel})
		mu.Unlock()
		return d, nil, nil
	})
	if err != nil {
		return err
	}
	out.attempted += ph.rec.attempted
	out.failed += ph.rec.failed
	for _, e := range ph.rec.errs {
		out.printf("FAILED operation: %s", e)
	}
	met1, err := scrape(s.hc, base+"/metrics")
	if err != nil {
		return err
	}
	nops := float64(len(done))
	if nops == 0 {
		return fmt.Errorf("traced pass completed no operation")
	}
	hit := met1[`privcluster_lstep_cache_total{result="hit"}`] - met0[`privcluster_lstep_cache_total{result="hit"}`]
	miss := met1[`privcluster_lstep_cache_total{result="miss"}`] - met0[`privcluster_lstep_cache_total{result="miss"}`]
	out.set("privcluster.lstep_hit_ratio", ratio(hit, hit+miss), "ratio")
	out.set("ledger.fsync_per_op", (fsyncs(met1)-fsyncs(met0))/nops, "count")
	setRuntime(out, ph, nops)

	// 2. The program's own split and the in-process replays of a sample.
	sort.Slice(done, func(i, j int) bool { return done[i].seq < done[j].seq })
	var sample []tracedOp
	for _, t := range done {
		if t.seq < sampleOps {
			sample = append(sample, t)
		}
	}
	if len(sample) == 0 {
		return fmt.Errorf("no sampled operation succeeded")
	}
	sp := split{ops: len(sample), layers: map[string]float64{}, program: program, programOf: programStageOf}
	for _, t := range sample {
		sp.e2eMS += t.ms
	}
	if err := replayHandles(cfg, env, sample, out); err != nil {
		return err
	}
	rp, closeRP, err := newReplayer(cfg, env, tr)
	if err != nil {
		return err
	}
	defer closeRP()
	// Warm the replay index for the targets the daemon's set-up answered,
	// outside any sampled operation.
	rp.ix.op = -1
	for _, o := range env.warm {
		if o.Kind == "cluster" {
			if _, err := rp.ix.BuildLStep(context.Background(), o.T); err != nil {
				return err
			}
		}
	}
	keep := map[int]bool{}
	matched := 0
	for _, t := range sample {
		keep[t.seq] = true
		rel, err := rp.replay(t.op, t.seq)
		if err != nil {
			return fmt.Errorf("layer replay of %s: %w", t.op.Kind, err)
		}
		if rel.equal(t.rel) {
			matched++
		}
	}
	tr.mu.Lock()
	layers := selfTimes(tr.spans, func(s span) bool {
		return keep[s.Op] && !strings.Contains(s.Name, "/") && s.Name != "daemon.request"
	})
	tr.mu.Unlock()
	sp.layers = layers
	out.lines = append(out.lines, sp.lines(w.name+" (daemon latency vs in-process layer replay)")...)
	out.printf("layer replay matched the daemon's release bit for bit on %d of %d operations", matched, len(sample))
	out.set("trace.unattributed_ms", sp.unattributed(), "ms")
	out.set("trace.unattributed_pct", 100*sp.unattributed()/(sp.e2eMS/float64(sp.ops)), "%")

	// 3. The daemon on its own, then every other layer on this dataset.
	warm := env.warm[0]
	if _, err := probeDaemon(s, warm, env.truth, tr, out); err != nil {
		return err
	}
	values := env.values
	if values == nil {
		values = values1D(cfg.seed, workloads["sweep-new-t"].n1)
	}
	if err := probeLayers(cfg, tr, out, env.points, values, warm.T, warm.epsilon()); err != nil {
		return err
	}
	m := out.metrics
	out.printf("build attribution: the program reports %.3f ms/op in build and %.3f ms/op in lstep over the sample; "+
		"an eager index build takes %.3f ms, the first sweep on it %.3f ms and a new-t sweep on a warm index %.3f ms, "+
		"so cell levels are built inside the sweep, not in the build stage",
		sp.program["build"]/float64(sp.ops), sp.program["lstep"]/float64(sp.ops),
		m["geometry.build_ms"].Value, m["geometry.lstep_cold_ms"].Value, m["geometry.lstep_newt_ms"].Value)
	return probeIngest(cfg, tr, out, ingestSteps)
}

// fsyncs is the daemon's count of ledger fsyncs.
func fsyncs(m map[string]float64) float64 {
	return m[`privclusterd_ledger_fsync_seconds_count{op="reserve"}`] + m[`privclusterd_ledger_fsync_seconds_count{op="commit"}`]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setRuntime reports the served processes' runtime cost per operation.
func setRuntime(out *outcome, ph phase, nops float64) {
	out.set("runtime.cpu_ms_per_op", ph.cpuMS/nops, "ms")
	out.set("runtime.gc_per_op", float64(ph.mem.NumGC)/nops, "count")
	out.set("runtime.gc_pause_ms_per_op", float64(ph.mem.PauseTotalNs)/1e6/nops, "ms")
	out.set("runtime.heap_inuse_mb", float64(ph.mem.HeapInuse)/1e6, "MB")
}
