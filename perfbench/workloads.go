package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"privcluster"
)

// workload is one benchmark workload: its closed-loop client count, its
// fixed tail percentile, its dataset sizes, and how to generate its
// inputs.
type workload struct {
	name    string
	clients int
	tail    float64 // percentile reported as query_tail_ms
	n       int     // 2-D points served
	n1      int     // 1-D values served for interior queries (sweep-new-t)
	env     func(cfg config, w *workload) (*serveEnv, error)
}

// workloads holds the workloads by name; workloadOrder is their order in
// BENCHMARK.json.
var (
	workloads     = map[string]*workload{}
	workloadOrder []string
)

func init() {
	for _, w := range []*workload{
		{name: "serve-warm", clients: 2, tail: 99, n: 100_000, env: newServeWarmEnv},
		{name: "sweep-new-t", clients: 1, tail: 90, n: 6_000, n1: 20_000, env: newSweepEnv},
	} {
		workloads[w.name] = w
		workloadOrder = append(workloadOrder, w.name)
	}
}

// size scales serve-warm's dataset for the run. Tests shrink it; the other
// workloads are already as small as their queries stay feasible.
func (cfg config) size(n int) int {
	return max(int(float64(n)*cfg.scale), 1)
}

// recorder collects the timed phase's operations.
type recorder struct {
	mu        sync.Mutex
	lat       []float64            // milliseconds, successful operations only
	byKind    map[string][]float64 // the same, per operation kind
	attempted int
	failed    int
	errs      []string
	pending   []pendingCheck
}

// pendingCheck is an answered operation whose release is checked after
// its phase (see settle).
type pendingCheck struct {
	kind  string
	d     time.Duration
	check func() error
}

// done records an issued operation: failed when err is set; otherwise
// successful, or, when a check of its release is left, pending until
// settle runs the check.
func (r *recorder) done(kind string, d time.Duration, check func() error, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil && check != nil {
		r.pending = append(r.pending, pendingCheck{kind, d, check})
		return
	}
	r.record(kind, d, err)
}

// settle runs the pending release checks.
func (r *recorder) settle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.pending {
		r.record(p.kind, p.d, p.check())
	}
	r.pending = nil
}

func (r *recorder) record(kind string, d time.Duration, err error) {
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	ms := float64(d.Nanoseconds()) / 1e6
	r.lat = append(r.lat, ms)
	if r.byKind == nil {
		r.byKind = make(map[string][]float64)
	}
	r.byKind[kind] = append(r.byKind[kind], ms)
}

// closedLoop runs clients that each issue their next operation only after
// the previous one has returned, until dur has passed. do returns the
// operation's latency (timed around the request alone), the check of its
// release that is still to run (nil when none is left) and its error. The
// checks are left pending in rec, for the caller to settle once the phase
// is over: the load generator then does no CPU-heavy work while the
// served processes are timed. It returns the phase's wall time.
func closedLoop(clients int, dur time.Duration, next func() op, do opFunc, rec *recorder) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := next()
				d, check, err := do(c, o)
				rec.done(o.Kind, d, check, err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// opFunc issues one operation of a closed loop (see closedLoop).
type opFunc func(client int, o op) (time.Duration, func() error, error)

// stream hands out a seeded operation sequence in order, to any number of
// clients: the sequence is fixed by the seed, whichever client takes which
// operation.
type stream struct {
	mu  sync.Mutex
	i   int
	gen func(i int) op
}

func (s *stream) next() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.gen(s.i)
	s.i++
	return o
}

// procSet is the set of processes holding program state in a workload.
type procSet struct {
	children []*child
	hc       *http.Client
}

// memStats reads each process's runtime.MemStats.
func (p procSet) memStats() ([]memStats, error) {
	var all []memStats
	for _, c := range p.children {
		m, err := c.memStats(p.hc)
		if err != nil {
			return nil, err
		}
		all = append(all, m)
	}
	return all, nil
}

// memDelta sums the per-process changes between two readings.
func memDelta(before, after []memStats) memStats {
	var sum memStats
	for i := range after {
		sum = sum.add(after[i].sub(before[i]))
	}
	return sum
}

func (p procSet) pids() []int {
	var pids []int
	for _, c := range p.children {
		pids = append(pids, c.pid())
	}
	return pids
}

// peakRSSMB sums VmHWM over the processes, in MB (10⁶ bytes).
func (p procSet) peakRSSMB() (float64, error) {
	var kb int64
	for _, pid := range p.pids() {
		v, err := procStatus(pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) * 1024 / 1e6, nil
}

// cpuMS sums the processes' user+system CPU time.
func (p procSet) cpuMS() (float64, error) {
	var ms float64
	for _, pid := range p.pids() {
		v, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		ms += v
	}
	return ms, nil
}

// phase is the measurement of one timed phase.
type phase struct {
	rec     *recorder
	elapsed time.Duration
	mem     memStats // deltas over the phase (HeapInuse: at its end)
	cpuMS   float64
	peakMB  float64
}

// measure runs a closed-loop phase and brackets it with the processes'
// memory and CPU readings. The pending release checks run after the
// readings.
func measure(p procSet, clients int, dur time.Duration, next func() op, do opFunc) (phase, error) {
	m0, err := p.memStats()
	if err != nil {
		return phase{}, err
	}
	c0, err := p.cpuMS()
	if err != nil {
		return phase{}, err
	}
	ph := phase{rec: &recorder{}}
	ph.elapsed = closedLoop(clients, dur, next, do, ph.rec)
	m1, err := p.memStats()
	if err != nil {
		return phase{}, err
	}
	c1, err := p.cpuMS()
	if err != nil {
		return phase{}, err
	}
	ph.mem = memDelta(m0, m1)
	ph.cpuMS = c1 - c0
	if ph.peakMB, err = p.peakRSSMB(); err != nil {
		return phase{}, err
	}
	ph.rec.settle()
	return ph, nil
}

// report sets the end-to-end metrics of a finished run.
func (o *outcome) report(w *workload, ph phase, setups []float64) {
	rec := ph.rec
	o.attempted += rec.attempted
	o.failed += rec.failed
	for _, e := range rec.errs {
		o.printf("FAILED operation: %s", e)
	}
	ok := len(rec.lat)
	o.printf("workload %s: closed loop, %d client(s), %d operations attempted, %d failed, %.2f s timed",
		w.name, w.clients, rec.attempted, rec.failed, ph.elapsed.Seconds())
	o.printf("tail percentile p%g over %d samples, %d beyond it", w.tail, ok, beyond(ok, w.tail))
	if !tailOK(ok, w.tail) {
		o.printf("WARNING: fewer than ten samples beyond p%g; query_tail_ms rests on too few samples", w.tail)
	}
	kinds := make([]string, 0, len(rec.byKind))
	for k := range rec.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		o.printf("  %-12s %5d ok, p50 %.3f ms, max %.3f ms", k, len(rec.byKind[k]), median(rec.byKind[k]), percentile(rec.byKind[k], 100))
	}
	slow, slowMS := 0, 0.0
	for _, ms := range rec.lat {
		if ms > 10*median(rec.lat) {
			slow++
			slowMS += ms
		}
	}
	o.printf("  %d operations took over 10× the median, %.0f ms in total", slow, slowMS)
	o.printf("setup_s is the median of %d set-ups: %v", len(setups), setups)
	o.set("setup_s", median(setups), "s")
	o.set("query_p50_ms", median(rec.lat), "ms")
	o.set("query_tail_ms", percentile(rec.lat, w.tail), "ms")
	o.set("ops_per_s", float64(ok)/ph.elapsed.Seconds(), "1/s")
	o.set("peak_rss_mb", ph.peakMB, "MB")
	if ok > 0 {
		o.set("alloc_mb_per_op", float64(ph.mem.TotalAlloc)/1e6/float64(ok), "MB")
	}
}

// setupOp notes a set-up operation (a warm-up answer) in the outcome.
func (o *outcome) setupOp(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.printf("FAILED set-up operation: %v", err)
	}
}

// daemonOp issues one operation and checks its release.
func daemonOp(cl *daemonClient, tr truth, o op) (time.Duration, error) {
	d, check, err := daemonRequest(cl, tr, o)
	if err != nil {
		return d, err
	}
	return d, check()
}

// daemonRequest issues one operation and parses its answer. It returns the
// latency and the check of the release against tr, not yet run.
func daemonRequest(cl *daemonClient, tr truth, o op) (time.Duration, func() error, error) {
	start := time.Now()
	body, _, err := cl.do(context.Background(), o)
	d := time.Since(start)
	if err != nil {
		return d, nil, err
	}
	r, err := parseRelease(o, body)
	if err != nil {
		return d, nil, fmt.Errorf("%s: malformed response: %w", o.Kind, err)
	}
	return d, func() error {
		if err := tr.check(o, r); err != nil {
			return fmt.Errorf("%s t=%d seed=%d: %w", o.Kind, o.T, o.Seed, err)
		}
		return nil
	}, nil
}

// served is a running privclusterd with its clients.
type served struct {
	d       *child
	clients []*daemonClient
	hc      *http.Client
}

func (s *served) stop() {
	if s != nil {
		s.d.stop()
	}
}

// setupDaemon starts privclusterd cfg.setups times, each time timing
// from launch until every warm-up operation has been answered; all but
// the last daemon are stopped. It returns the last daemon and the set-up
// times in seconds.
func setupDaemon(cfg config, out *outcome, datasets []daemonDataset, clients int, warm []op, tr truth) (*served, []float64, error) {
	// Every daemon has at least two principals, so that the traced run can
	// measure two clients at once on any workload.
	clients = max(clients, 2)
	hc := newHTTPClient()
	var s *served
	var times []float64
	for i := 0; i < cfg.setups; i++ {
		s.stop()
		start := time.Now()
		d, err := startDaemon(cfg.bin, filepath.Join(cfg.work, fmt.Sprintf("daemon%d", i)), datasets, clients)
		if err != nil {
			return nil, nil, err
		}
		s = &served{d: d, hc: hc}
		for c := 0; c < clients; c++ {
			s.clients = append(s.clients, &daemonClient{hc: hc, base: "http://" + d.addr, key: principals(clients)[c].APIKey})
		}
		for _, o := range warm {
			_, err := daemonOp(s.clients[0], tr, o)
			out.setupOp(err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return s, times, nil
}

// warmTargets are serve-warm's query targets: three t values around n/2,
// all answered during set-up and all inside the handle's 8-entry LStep
// cache.
func warmTargets(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x7a11))
	ts := make([]int, 3)
	for i := range ts {
		ts[i] = n/2 + (i-1)*n/20 + rng.Intn(n/100+1)
	}
	return ts
}

// warmStream is serve-warm's operation mix: about 80% single cluster
// queries and 20% batches of four, all at warmed targets. Seeds step by
// four, so that a batch's queries (Seed, Seed+1, ...) share none.
func warmStream(seed int64, ts []int) *stream {
	rng := rand.New(rand.NewSource(seed ^ 0x5757))
	return &stream{gen: func(i int) op {
		if rng.Float64() < 0.2 {
			b := op{Kind: "batch", Seed: querySeed(4 * i)}
			for j := 0; j < 4; j++ {
				b.Ts = append(b.Ts, ts[rng.Intn(len(ts))])
			}
			return b
		}
		return op{Kind: "cluster", T: ts[rng.Intn(len(ts))], Seed: querySeed(4 * i)}
	}}
}

// runDaemon runs a daemon workload: its set-ups, then the timed closed
// loop against the last set-up's daemon.
func runDaemon(cfg config, w *workload) (*outcome, error) {
	env, err := w.env(cfg, w)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true}
	s, setups, err := setupDaemon(cfg, out, env.datasets, w.clients, env.warm, env.truth)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	do := func(c int, o op) (time.Duration, func() error, error) {
		return daemonRequest(s.clients[c], env.truth, o)
	}
	// An untimed warm-up runs the workload's own stream until the daemon
	// has settled after set-up; its operations are checked like any other.
	warm := &recorder{}
	closedLoop(w.clients, warmup, env.ops.next, do, warm)
	warm.settle()
	out.attempted += warm.attempted
	out.failed += warm.failed
	for _, e := range warm.errs {
		out.printf("FAILED warm-up operation: %s", e)
	}
	ph, err := measure(procSet{children: []*child{s.d}, hc: s.hc}, w.clients, cfg.duration(), env.ops.next, do)
	if err != nil {
		return nil, err
	}
	out.report(w, ph, setups)
	return out, nil
}

// warmup is the length of the untimed phase before the timed one.
const warmup = 2 * time.Second

func (cfg config) duration() time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second))
}

// serveEnv is a daemon workload's generated inputs.
type serveEnv struct {
	points   []privcluster.Point
	values   []privcluster.Point
	datasets []daemonDataset
	warm     []op
	ops      *stream
	truth    truth
}

func newServeWarmEnv(cfg config, w *workload) (*serveEnv, error) {
	n := cfg.size(w.n)
	pl, err := plantedPoints(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	csv := filepath.Join(cfg.work, "points.csv")
	if err := writeCSV(csv, pl.points); err != nil {
		return nil, err
	}
	ts := warmTargets(cfg.seed, n)
	env := &serveEnv{
		points:   pl.points,
		datasets: []daemonDataset{{Name: "pts", CSV: csv, Grid: gridSize}},
		truth:    truth{points: pl.points},
		ops:      warmStream(cfg.seed, ts),
	}
	for j, t := range ts {
		env.warm = append(env.warm, op{Kind: "cluster", T: t, Seed: querySeed(-1 - j)})
	}
	return env, nil
}

// newTRange is the target range of sweep-new-t on n points: every t in it
// is well above the mechanism's promise Γ and below the planted cluster's
// 60% share, and above the 40% background, so a 2-cover's second round
// (on the points the first ball left) is infeasible and skipped.
func newTRange(n int) (lo, hi int) { return 2 * n / 5, 14 * n / 25 }

// newTEpsilon is the ε of sweep-new-t's queries. At n = 6000 and ε = 1 the
// promise Γ is within a factor of six of t and the radius search often
// fails; ε = 2 halves Γ.
const newTEpsilon = 2

// newTStream is sweep-new-t's operation mix: cluster queries (70%) and
// 2-cover queries (15%) each at a target never used before in the run,
// drawn from a seeded permutation of the feasible range, and interior
// point queries (15%) on the 1-D dataset.
func newTStream(seed int64, n, innerN int) *stream {
	rng := rand.New(rand.NewSource(seed ^ 0x2e77))
	lo, hi := newTRange(n)
	perm := rng.Perm(hi - lo)
	next := 0
	return &stream{gen: func(i int) op {
		u := rng.Float64()
		if u < 0.15 {
			return op{Kind: "interior", InnerN: innerN, Epsilon: newTEpsilon, Seed: querySeed(i)}
		}
		// A run that exhausts the permutation starts it again: a target
		// then repeats, but hundreds of targets after its previous use,
		// far outside the handle's 8-entry LStep cache.
		t := lo + perm[next%len(perm)]
		next++
		if u < 0.30 {
			// A 2-cover splits its cost over two rounds; twice the ε gives
			// each round the ε of a single cluster query.
			return op{Kind: "kcover", K: 2, T: t, Epsilon: 2 * newTEpsilon, Seed: querySeed(i)}
		}
		return op{Kind: "cluster", T: t, Epsilon: newTEpsilon, Seed: querySeed(i)}
	}}
}

func newSweepEnv(cfg config, w *workload) (*serveEnv, error) {
	n, n1 := w.n, w.n1
	pl, err := plantedPoints(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	vals := values1D(cfg.seed, n1)
	csv := filepath.Join(cfg.work, "points.csv")
	vcsv := filepath.Join(cfg.work, "values.csv")
	if err := writeCSV(csv, pl.points); err != nil {
		return nil, err
	}
	if err := writeCSV(vcsv, vals); err != nil {
		return nil, err
	}
	lo, _ := newTRange(n)
	innerN := n1 / 2
	return &serveEnv{
		points: pl.points,
		values: vals,
		datasets: []daemonDataset{
			{Name: "pts", CSV: csv, Grid: gridSize},
			{Name: "vals", CSV: vcsv, Grid: gridSize},
		},
		// The set-up answers one cluster query just below the range the
		// timed phase draws from, and one interior query.
		warm: []op{
			{Kind: "cluster", T: lo - 1, Epsilon: newTEpsilon, Seed: querySeed(-1)},
			{Kind: "interior", InnerN: innerN, Epsilon: newTEpsilon, Seed: querySeed(-2)},
		},
		ops:   newTStream(cfg.seed, n, innerN),
		truth: truth{points: pl.points, values: spanOf(vals)},
	}, nil
}
