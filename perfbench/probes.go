package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"privcluster"
	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/ledger"
	"privcluster/internal/vec"
)

// probeDaemon times warm queries through the daemon from one client and
// then from two at once. It returns how many queries it sent.
func probeDaemon(s *served, warm op, tr truth, t *tracer, out *outcome) (ops int, err error) {
	const reps = 40
	one := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		o := warm
		o.Seed = querySeed(1_000_000 + i)
		var err error
		ms := t.timed("daemon.request", spanRef{}, -1, func() { _, err = daemonOp(s.clients[0], tr, o) })
		if err != nil {
			return 0, err
		}
		one = append(one, ms)
	}
	var mu sync.Mutex
	var two []float64
	var wg sync.WaitGroup
	errs := make([]error, len(s.clients))
	for c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				o := warm
				o.Seed = querySeed(2_000_000 + 1000*c + i)
				start := time.Now()
				if _, err := daemonOp(s.clients[c], tr, o); err != nil {
					errs[c] = err
					return
				}
				mu.Lock()
				two = append(two, float64(time.Since(start).Nanoseconds())/1e6)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	out.set("daemon.request_ms", median(one), "ms")
	out.set("daemon.contention_ms", median(two)-median(one), "ms")
	return len(one) + len(two), nil
}

// prober times the layers' public entry points on one workload's
// dataset, each call inside a span under one "probe" root.
type prober struct {
	cfg   config
	tr    *tracer
	out   *outcome
	root  spanRef
	grid  geometry.Grid
	pts   []privcluster.Point
	frame *vec.Frame
	warmT int
	eps   float64
}

// med runs f reps times, each inside a span named name, and returns the
// median duration in milliseconds.
func (p *prober) med(name string, reps int, f func(i int) error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		var err error
		d := p.tr.timed(name, p.root, -1, func() { err = f(i) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ms = append(ms, d)
	}
	return median(ms), nil
}

// probeLayers times every layer on the workload's dataset pts (values is a
// 1-D dataset for the interior-point layer) at the warm target warmT.
func probeLayers(cfg config, tr *tracer, out *outcome, pts, values []privcluster.Point, warmT int, eps float64) error {
	grid, err := geometry.NewGrid(gridSize, 2)
	if err != nil {
		return err
	}
	p := &prober{cfg: cfg, tr: tr, out: out, root: tr.start("probe", spanRef{}, -1), grid: grid,
		pts: pts, frame: frameOf(pts, grid), warmT: warmT, eps: eps}
	defer p.root.end()
	if err := p.handle(); err != nil {
		return err
	}
	ix, err := p.geometry()
	if err != nil {
		return err
	}
	if err := p.core(ix, values); err != nil {
		return err
	}
	return p.epochs()
}

// handle times privcluster: Open, warm queries and batches under a durable
// ledger, the tracing overhead on them, and the ledger calls themselves.
func (p *prober) handle() error {
	ctx := context.Background()
	v, err := p.med("privcluster.open", 5, func(int) error {
		ds, err := privcluster.Open(p.pts, privcluster.DatasetOptions{GridSize: gridSize})
		if err == nil {
			ds.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	p.out.set("privcluster.open_ms", v, "ms")
	led, err := openLedger(filepath.Join(p.cfg.work, "probe-ledger"), "probe")
	if err != nil {
		return err
	}
	defer led.Close()
	ds, err := privcluster.Open(p.pts, privcluster.DatasetOptions{GridSize: gridSize, Admitter: ledgerAdmitter{l: led, principal: "probe"}})
	if err != nil {
		return err
	}
	defer ds.Close()
	q := func(i int) privcluster.QueryOptions {
		return privcluster.QueryOptions{Epsilon: p.eps, Delta: queryDelta, Seed: querySeed(3_000_000 + i)}
	}
	if _, err := ds.FindCluster(ctx, p.warmT, q(0)); err != nil {
		return err
	}
	query, err := p.med("privcluster.query", 30, func(i int) error { _, err := ds.FindCluster(ctx, p.warmT, q(i)); return err })
	if err != nil {
		return err
	}
	p.out.set("privcluster.query_ms", query, "ms")
	p.out.set("daemon.self_ms", p.out.metrics["daemon.request_ms"].Value-query, "ms")
	v, err = p.med("privcluster.batch", 10, func(i int) error {
		qs := make([]privcluster.Query, 4)
		for j := range qs {
			qs[j] = privcluster.Query{T: p.warmT, Opts: q(100 + 4*i + j)}
		}
		for _, r := range ds.FindClustersBatch(ctx, qs) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out.set("privcluster.batch_ms", v, "ms")

	// The same warm query with and without WithTrace, interleaved.
	var plain, traced []float64
	for i := 0; i < 40; i++ {
		for _, on := range []bool{false, true} {
			qctx := ctx
			if on {
				qctx = privcluster.WithTrace(ctx)
			}
			start := time.Now()
			if _, err := ds.FindCluster(qctx, p.warmT, q(200+i)); err != nil {
				return err
			}
			d := float64(time.Since(start).Nanoseconds()) / 1e6
			if on {
				traced = append(traced, d)
			} else {
				plain = append(plain, d)
			}
		}
	}
	p.out.set("obs.trace_overhead_pct", 100*(median(traced)-median(plain))/median(plain), "%")

	// Reserve and Commit, one fsync each.
	var reserve, commit []float64
	for i := 0; i < 30; i++ {
		var r *ledger.Reservation
		var err error
		reserve = append(reserve, p.tr.timed("ledger.reserve", p.root, -1, func() { r, err = led.Reserve("probe", ledger.Cost{Epsilon: 1, Delta: queryDelta}) }))
		if err != nil {
			return err
		}
		commit = append(commit, p.tr.timed("ledger.commit", p.root, -1, func() { err = r.Commit() }))
		if err != nil {
			return err
		}
	}
	p.out.set("ledger.reserve_ms", median(reserve), "ms")
	p.out.set("ledger.commit_ms", median(commit), "ms")
	return nil
}

// newT is the i-th probe target not used by the workload's warm queries.
func (p *prober) newT(i int) int {
	lo, hi := newTRange(len(p.pts))
	return lo + (hi-lo)*(i+1)/7
}

// geometry times the index build Dataset resolves, the first sweep on a
// fresh index and sweeps at new targets on a warm one. It returns two
// built indexes for the core probes.
func (p *prober) geometry() ([]geometry.BallIndex, error) {
	ctx := context.Background()
	n := len(p.pts)
	pol := core.ResolveIndexPolicy(core.IndexAuto, n)
	var ixs []geometry.BallIndex
	v, err := p.med("geometry.build", 3, func(int) error {
		ix, err := core.NewBallIndexFrame(ctx, p.frame, p.grid, pol, 0, core.ResolveShards(0, n))
		ixs = append(ixs, ix)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.out.set("geometry.build_ms", v, "ms")
	v, err = p.med("geometry.lstep_cold", len(ixs), func(i int) error { _, err := ixs[i].BuildLStep(ctx, p.warmT); return err })
	if err != nil {
		return nil, err
	}
	p.out.set("geometry.lstep_cold_ms", v, "ms")
	var breaks, allocMB []float64
	v, err = p.med("geometry.lstep_newt", 3, func(i int) error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ls, err := ixs[0].BuildLStep(ctx, p.newT(i))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		breaks = append(breaks, float64(len(ls.Breaks)))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.out.set("geometry.lstep_newt_ms", v, "ms")
	p.out.set("geometry.lstep_alloc_mb", median(allocMB), "MB")
	p.out.set("geometry.lstep_breaks", median(breaks), "count")
	return ixs, nil
}

// core times the mechanisms: the radius search over a cached LStep,
// GoodCenter at the radius it releases, a 2-cover at a fresh target and
// the interior-point reduction on values.
func (p *prober) core(ixs []geometry.BallIndex, values []privcluster.Point) error {
	lix := &layerIndex{BallIndex: ixs[0], tr: p.tr, parent: p.root, op: -1, cache: map[int]*geometry.LStep{}}
	if _, err := lix.BuildLStep(context.Background(), p.warmT); err != nil {
		return err
	}
	rp := &replayer{grid: p.grid}
	half := rp.params(p.warmT, p.eps, p.grid)
	half.Privacy = half.Privacy.Scale(0.5)
	var radius float64
	v, err := p.med("recconcave.search", 10, func(i int) error {
		rad, err := core.GoodRadius(rand.New(rand.NewSource(querySeed(i))), lix, half)
		radius = rad.Radius
		return err
	})
	if err != nil {
		return err
	}
	p.out.set("recconcave.search_ms", v, "ms")
	var reps []float64
	v, err = p.med("core.goodcenter", 10, func(i int) error {
		cen, err := core.GoodCenterFrame(rand.New(rand.NewSource(querySeed(i))), p.frame, radius, half)
		reps = append(reps, float64(cen.Repetitions))
		return err
	})
	if err != nil {
		return err
	}
	p.out.set("core.goodcenter_ms", v, "ms")
	p.out.set("core.svt_repetitions", mean(reps), "count")
	v, err = p.med("core.kcover", 2, func(i int) error {
		_, err := core.KCoverIndexed(rand.New(rand.NewSource(querySeed(i))), ixs[1], 2, rp.params(p.newT(3+i), 2*p.eps, p.grid))
		return err
	})
	if err != nil {
		return err
	}
	p.out.set("core.kcover_ms", v, "ms")
	grid1, err := geometry.NewGrid(gridSize, 1)
	if err != nil {
		return err
	}
	sorted := make([]float64, len(values))
	for i, v := range values {
		sorted[i] = v[0]
	}
	sort.Float64s(sorted)
	innerN := len(sorted) / 2
	v, err = p.med("core.intpoint", 3, func(i int) error {
		_, err := core.IntPoint(rand.New(rand.NewSource(querySeed(i))), sorted, core.IntPointParams{
			InnerN:  innerN,
			Cluster: rp.params(innerN/2, newTEpsilon, grid1),
			Privacy: dp.Params{Epsilon: newTEpsilon, Delta: queryDelta},
			Beta:    0.1,
		})
		return err
	})
	if err != nil {
		return err
	}
	p.out.set("core.intpoint_ms", v, "ms")
	return nil
}

// epochs times a local mutable index on the dataset: append a batch,
// snapshot the new epoch and sweep it, delete the batch, merge.
func (p *prober) epochs() error {
	ctx := context.Background()
	mut, err := core.NewMutableBallIndexFrame(ctx, p.frame, p.grid, 0, 0)
	if err != nil {
		return err
	}
	defer mut.Close()
	pl := planted{points: p.pts, center: vec.Vector{0.5, 0.5}}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	var app, del, mrg, lst []float64
	for i := 0; i < 3; i++ {
		b, err := pl.batch(rng, batchRows)
		if err != nil {
			return err
		}
		var ids []uint64
		var ep geometry.Epoch
		app = append(app, p.tr.timed("geometry.epoch_append", p.root, -1, func() { ids, ep, err = mut.Append(ctx, frameOf(b, p.grid)) }))
		if err != nil {
			return err
		}
		lst = append(lst, p.tr.timed("geometry.epoch_lstep", p.root, -1, func() {
			var snap geometry.BallIndex
			if snap, err = mut.Snapshot(ctx, ep); err == nil {
				_, err = snap.BuildLStep(ctx, p.warmT)
			}
		}))
		if err != nil {
			return err
		}
		del = append(del, p.tr.timed("geometry.epoch_delete", p.root, -1, func() { _, err = mut.Delete(ctx, ids) }))
		if err != nil {
			return err
		}
		mrg = append(mrg, p.tr.timed("geometry.epoch_merge", p.root, -1, func() { err = mut.Merge(ctx) }))
		if err != nil {
			return err
		}
	}
	p.out.set("geometry.epoch_append_ms", median(app), "ms")
	p.out.set("geometry.epoch_lstep_ms", median(lst), "ms")
	p.out.set("geometry.epoch_delete_ms", median(del), "ms")
	p.out.set("geometry.epoch_merge_ms", median(mrg), "ms")
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ingestSteps is how many ingest operations the probe runs on each stack.
const ingestSteps = 8

// probeIngest runs steps ingest operations on a remote stack (two
// shardservers, a counting dialer) and on a local mutable handle, and
// reports the transport layer's counters and share of the operation.
func probeIngest(cfg config, tr *tracer, out *outcome, steps int) error {
	wire := &wireStats{}
	remote, err := openIngest(cfg, filepath.Join(cfg.work, "probe-shards"), wire)
	if err != nil {
		return err
	}
	defer remote.close()
	before := wire.counts()
	rem, err := runIngest(tr, out, remote, "op/ingest-remote", steps)
	if err != nil {
		return err
	}
	wire.report(out, before, float64(steps))
	var addrs [][]string
	for _, s := range remote.servers {
		addrs = append(addrs, []string{s.addr})
	}
	var opens []float64
	for i := 0; i < 3; i++ {
		var ds *privcluster.Dataset
		d := tr.timed("transport.open", spanRef{}, -1, func() {
			ds, err = privcluster.Open(remote.pl.points, privcluster.DatasetOptions{Mutable: true, Placement: &privcluster.Placement{Partitions: addrs, Dial: wire.dial}})
		})
		if err != nil {
			return err
		}
		ds.Close()
		opens = append(opens, d)
	}
	out.set("transport.open_ms", median(opens), "ms")
	local, err := openIngest(cfg, "", nil)
	if err != nil {
		return err
	}
	defer local.close()
	loc, err := runIngest(tr, out, local, "op/ingest-local", steps)
	if err != nil {
		return err
	}
	out.set("transport.self_ms", median(rem)-median(loc), "ms")
	return nil
}

// runIngest runs steps ingest operations on e, each under a root span
// named name, and returns their latencies.
func runIngest(tr *tracer, out *outcome, e *ingestEnv, name string, steps int) ([]float64, error) {
	var ms []float64
	for i := 0; i < steps; i++ {
		root := tr.start(name, spanRef{}, -1)
		d, err := e.step(context.Background())
		root.end()
		out.attempted++
		if err != nil {
			out.failed++
			return nil, err
		}
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return ms, nil
}
