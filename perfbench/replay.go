package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"privcluster"
	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/ledger"
	"privcluster/internal/vec"
)

// layerIndex wraps a ball index for the in-process replay: it memoizes
// BuildLStep per t as the Dataset handle does, and records a
// geometry.lstep span around every sweep it runs.
type layerIndex struct {
	geometry.BallIndex
	tr     *tracer
	parent spanRef
	op     int
	cache  map[int]*geometry.LStep
}

func (l *layerIndex) BuildLStep(ctx context.Context, t int) (*geometry.LStep, error) {
	if ls, ok := l.cache[t]; ok {
		return ls, nil
	}
	var ls *geometry.LStep
	var err error
	l.tr.timed("geometry.lstep", l.parent, l.op, func() { ls, err = l.BallIndex.BuildLStep(ctx, t) })
	if err == nil {
		l.cache[t] = ls
	}
	return ls, err
}

// replayer re-runs daemon operations in process by calling the layers the
// daemon's handle calls — ledger, geometry, recconcave (inside
// core.GoodRadius), core — in the same order with the same seeds, so the
// releases must match the daemon's bit for bit.
type replayer struct {
	tr     *tracer
	led    *ledger.Ledger
	grid   geometry.Grid
	ix     *layerIndex
	grid1  geometry.Grid
	values []float64 // sorted unit values of the 1-D dataset
	// scratch is reused across queries, as the handle pools its own.
	scratch *core.QueryScratch
}

func frameOf(pts []privcluster.Point, grid geometry.Grid) *vec.Frame {
	f := vec.NewFrame(len(pts), len(pts[0]))
	u := make(vec.Vector, len(pts[0]))
	for i, p := range pts {
		grid.QuantizeInto(u, vec.Vector(p))
		f.SetRow(i, u)
	}
	return f
}

// profile is the core profile a Dataset handle opened with default
// options passes to the mechanisms.
func profile() core.Profile {
	p := core.DefaultProfile()
	p.Workers, p.Shards, p.Packing = 0, 0, 0
	return p
}

func (r *replayer) params(t int, eps float64, grid geometry.Grid) core.Params {
	if r.scratch == nil {
		r.scratch = core.NewQueryScratch()
	}
	return core.Params{
		T:       t,
		Privacy: dp.Params{Epsilon: eps, Delta: queryDelta},
		Beta:    0.1,
		Grid:    grid,
		Profile: profile(),
		Index:   core.IndexAuto,
		Ctx:     context.Background(),
		Scratch: r.scratch,
	}
}

// admit wraps f in a durable reservation, as the daemon's ledger admitter
// does.
func (r *replayer) admit(root spanRef, seq int, eps float64, f func() error) error {
	var rsv *ledger.Reservation
	var err error
	r.tr.timed("ledger.reserve", root, seq, func() { rsv, err = r.led.Reserve("replay", ledger.Cost{Epsilon: eps, Delta: queryDelta}) })
	if err != nil {
		return err
	}
	ferr := f()
	r.tr.timed("ledger.commit", root, seq, func() { err = rsv.Commit() })
	if ferr != nil {
		return ferr
	}
	return err
}

// cluster replays one 1-cluster query: GoodRadius (whose LStep sweep the
// index wrapper spans as geometry.lstep; the rest is the recconcave
// search) then GoodCenter, each on half the budget.
func (r *replayer) cluster(root spanRef, seq, t int, eps float64, seed int64) (release, error) {
	var rel release
	err := r.admit(root, seq, eps, func() error {
		prm := r.params(t, eps, r.grid)
		half := prm
		half.Privacy = prm.Privacy.Scale(0.5)
		rng := rand.New(rand.NewSource(seed))
		rs := r.tr.start("recconcave.search", root, seq)
		r.ix.parent, r.ix.op = rs, seq
		rad, err := core.GoodRadius(rng, r.ix, half)
		rs.end()
		if err != nil {
			return err
		}
		var cen core.CenterResult
		r.tr.timed("core.goodcenter", root, seq, func() { cen, err = core.GoodCenterFrame(rng, r.ix.Frame(), rad.Radius, half) })
		if err != nil {
			return err
		}
		rel = release{Centers: [][]float64{cen.Center}, Radii: []float64{cen.Radius}}
		return nil
	})
	return rel, err
}

// replay re-runs one daemon operation through the layers.
func (r *replayer) replay(o op, seq int) (release, error) {
	root := r.tr.start("replay/"+o.Kind, spanRef{}, seq)
	defer root.end()
	switch o.Kind {
	case "cluster":
		return r.cluster(root, seq, o.T, o.epsilon(), o.Seed)
	case "batch":
		var all release
		for i, t := range o.Ts {
			rel, err := r.cluster(root, seq, t, o.epsilon(), o.Seed+int64(i))
			if err != nil {
				return all, err
			}
			all.Centers = append(all.Centers, rel.Centers...)
			all.Radii = append(all.Radii, rel.Radii...)
		}
		return all, nil
	case "kcover":
		var rel release
		err := r.admit(root, seq, o.epsilon(), func() error {
			ks := r.tr.start("core.kcover", root, seq)
			r.ix.parent, r.ix.op = ks, seq
			balls, err := core.KCoverIndexed(rand.New(rand.NewSource(o.Seed)), r.ix, o.K, r.params(o.T, o.epsilon(), r.grid))
			ks.end()
			for _, b := range balls {
				rel.Centers = append(rel.Centers, b.Center)
				rel.Radii = append(rel.Radii, b.Radius)
			}
			return err
		})
		return rel, err
	case "interior":
		var rel release
		err := r.admit(root, seq, 2*o.epsilon(), func() error {
			var res core.IntPointResult
			var err error
			r.tr.timed("core.intpoint", root, seq, func() {
				res, err = core.IntPoint(rand.New(rand.NewSource(o.Seed)), r.values, core.IntPointParams{
					InnerN:  o.InnerN,
					Cluster: r.params(o.InnerN/2, o.epsilon(), r.grid1),
					Privacy: dp.Params{Epsilon: o.epsilon(), Delta: queryDelta},
					Beta:    0.1,
				})
			})
			rel.Point = res.Point
			return err
		})
		return rel, err
	}
	return release{}, fmt.Errorf("cannot replay %q", o.Kind)
}

// openLedger opens a fresh durable ledger (fsync on) under dir with a
// large grant for principal.
func openLedger(dir, principal string) (*ledger.Ledger, error) {
	led, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		return nil, err
	}
	if err := led.Grant(principal, ledger.Cost{Epsilon: grantEpsilon, Delta: grantDelta}); err != nil {
		led.Close()
		return nil, err
	}
	return led, nil
}

// ledgerAdmitter makes a ledger the admission authority of an in-process
// handle, as privclusterd does.
type ledgerAdmitter struct {
	l         *ledger.Ledger
	principal string
}

func (a ledgerAdmitter) Reserve(_ context.Context, c privcluster.Budget) (privcluster.Reservation, error) {
	r, err := a.l.Reserve(a.principal, ledger.Cost{Epsilon: c.Epsilon, Delta: c.Delta})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// handleOp runs o on in-process handles with the daemon's options.
func handleOp(ds, vals *privcluster.Dataset, o op) (release, error) {
	ctx := context.Background()
	q := privcluster.QueryOptions{Epsilon: o.epsilon(), Delta: queryDelta, Seed: o.Seed}
	switch o.Kind {
	case "cluster":
		c, err := ds.FindCluster(ctx, o.T, q)
		return releaseOf([]privcluster.Cluster{c}), err
	case "kcover":
		cs, err := ds.FindClusters(ctx, o.K, o.T, q)
		return releaseOf(cs), err
	case "interior":
		p, err := vals.InteriorPoint(ctx, o.InnerN, q)
		return release{Point: p}, err
	case "batch":
		qs := make([]privcluster.Query, len(o.Ts))
		for i, t := range o.Ts {
			qs[i] = privcluster.Query{T: t, Opts: privcluster.QueryOptions{Epsilon: o.epsilon(), Delta: queryDelta, Seed: o.Seed + int64(i)}}
		}
		var all release
		for _, res := range ds.FindClustersBatch(ctx, qs) {
			if res.Err != nil {
				return all, res.Err
			}
			all.Centers = append(all.Centers, releaseOf(res.Clusters).Centers...)
			all.Radii = append(all.Radii, releaseOf(res.Clusters).Radii...)
		}
		return all, nil
	}
	return release{}, fmt.Errorf("no handle call for %q", o.Kind)
}

// replayHandles re-runs the sampled daemon operations on in-process
// handles opened with the daemon's options and requires bit-identical
// releases.
func replayHandles(cfg config, env *serveEnv, sample []tracedOp, out *outcome) error {
	ds, err := privcluster.Open(env.points, privcluster.DatasetOptions{GridSize: gridSize})
	if err != nil {
		return err
	}
	defer ds.Close()
	var vals *privcluster.Dataset
	if env.values != nil {
		if vals, err = privcluster.Open(env.values, privcluster.DatasetOptions{GridSize: gridSize}); err != nil {
			return err
		}
		defer vals.Close()
	}
	bad := 0
	for _, t := range sample {
		rel, err := handleOp(ds, vals, t.op)
		out.attempted++
		if err != nil || !rel.equal(t.rel) {
			bad++
			out.failed++
			out.printf("FAILED replay: %s seed=%d released differently in process (err=%v)", t.op.Kind, t.op.Seed, err)
		}
	}
	out.printf("in-process handle replay: %d of %d daemon releases bit-identical", len(sample)-bad, len(sample))
	if bad > 0 {
		out.correct = false
	}
	return nil
}

// newReplayer builds the layer replay's index (spanned as geometry.build)
// and ledger for a daemon workload's dataset.
func newReplayer(cfg config, env *serveEnv, tr *tracer) (*replayer, func(), error) {
	grid, err := geometry.NewGrid(gridSize, 2)
	if err != nil {
		return nil, nil, err
	}
	grid1, err := geometry.NewGrid(gridSize, 1)
	if err != nil {
		return nil, nil, err
	}
	led, err := openLedger(filepath.Join(cfg.work, "replay-ledger"), "replay")
	if err != nil {
		return nil, nil, err
	}
	f := frameOf(env.points, grid)
	n := f.N()
	pol := core.ResolveIndexPolicy(core.IndexAuto, n)
	var ix geometry.BallIndex
	tr.timed("geometry.build", spanRef{}, -1, func() {
		ix, err = core.NewBallIndexFrame(context.Background(), f, grid, pol, 0, core.ResolveShards(0, n))
	})
	if err != nil {
		led.Close()
		return nil, nil, err
	}
	r := &replayer{tr: tr, led: led, grid: grid, grid1: grid1,
		ix: &layerIndex{BallIndex: ix, tr: tr, cache: map[int]*geometry.LStep{}}}
	if env.values != nil {
		r.values = make([]float64, len(env.values))
		for i, v := range env.values {
			r.values[i] = v[0]
		}
		sort.Float64s(r.values)
	}
	return r, func() { led.Close() }, nil
}
