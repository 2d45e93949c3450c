package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"privcluster"
)

// The ingest probe of the traced run drives a Mutable handle the way an
// ingesting user does: every operation appends one batch of batchRows
// rows and queries the new epoch. The handle runs over two shardservers
// (the transport layer) and, for comparison, locally.
const (
	ingestN0  = 3_000
	batchRows = 256
)

// ingestEpsilon is the ε of the ingest queries. At t = n₀/2 = 1500 a
// smaller ε leaves the promise Γ close enough to t that the radius search
// or GoodCenter fails on some seeds.
const ingestEpsilon = 4

// wireStats counts the traffic of every connection dialled through it.
type wireStats struct {
	rpcs   atomic.Int64 // request starts: a write on a connection whose last call was a read (or none)
	bytes  atomic.Int64 // bytes read plus written
	waitNS atomic.Int64 // time blocked in Read
}

// counts reads the counters: RPCs, bytes, nanoseconds waited.
func (w *wireStats) counts() [3]int64 {
	return [3]int64{w.rpcs.Load(), w.bytes.Load(), w.waitNS.Load()}
}

// report sets the transport metrics for nops operations since before.
func (w *wireStats) report(out *outcome, before [3]int64, nops float64) {
	now := w.counts()
	out.set("transport.rpcs_per_op", float64(now[0]-before[0])/nops, "count")
	out.set("transport.bytes_per_op", float64(now[1]-before[1])/nops, "bytes")
	out.set("transport.wait_ms_per_op", float64(now[2]-before[2])/1e6/nops, "ms")
}

// dial is a Placement.Dial that wraps TCP connections in counters.
func (w *wireStats) dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, w: w}, nil
}

type countingConn struct {
	net.Conn
	w       *wireStats
	writing atomic.Bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	if !c.writing.Swap(true) {
		c.w.rpcs.Add(1)
	}
	n, err := c.Conn.Write(p)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.writing.Store(false)
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.w.waitNS.Add(int64(time.Since(start)))
	c.w.bytes.Add(int64(n))
	return n, err
}

// ingestEnv is a running ingest stack: the mutable handle, the
// shardservers under it when remote, and the benchmark's copy of the live
// rows.
type ingestEnv struct {
	servers []*child
	ds      *privcluster.Dataset
	pl      planted
	live    []privcluster.Point // the rows of the current epoch
	rng     *rand.Rand
	t       int
	i       int // next operation's stream position
}

func (e *ingestEnv) close() {
	if e == nil {
		return
	}
	if e.ds != nil {
		e.ds.Close()
	}
	for _, s := range e.servers {
		s.stop()
	}
}

// openIngest opens a mutable handle on n₀ seeded rows. With dir set it
// first starts two shardservers (logging under dir) and places the handle
// on them as two single-replica partitions dialled through wire; with dir
// empty the handle is local.
func openIngest(cfg config, dir string, wire *wireStats) (*ingestEnv, error) {
	pl, err := plantedPoints(cfg.seed, ingestN0)
	if err != nil {
		return nil, err
	}
	e := &ingestEnv{
		pl:   pl,
		live: append([]privcluster.Point(nil), pl.points...),
		rng:  rand.New(rand.NewSource(cfg.seed ^ 0x1a6e57)),
		t:    len(pl.points) / 2,
	}
	opts := privcluster.DatasetOptions{Mutable: true}
	if dir != "" {
		place := &privcluster.Placement{Dial: wire.dial}
		for i := 0; i < 2; i++ {
			s, err := startShardServer(cfg.bin, dir, i)
			if err != nil {
				e.close()
				return nil, err
			}
			e.servers = append(e.servers, s)
			place.Partitions = append(place.Partitions, []string{s.addr})
		}
		opts.Placement = place
	}
	if e.ds, err = privcluster.Open(pl.points, opts); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// step runs one ingest operation: append a seeded batch and query the
// new epoch. The latency covers the handle calls only; the batch is drawn
// and the release checked outside it.
func (e *ingestEnv) step(ctx context.Context) (time.Duration, error) {
	i := e.i
	e.i++
	pts, err := e.pl.batch(e.rng, batchRows)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, _, err := e.ds.Append(ctx, pts); err != nil {
		return time.Since(start), fmt.Errorf("append: %w", err)
	}
	c, err := e.ds.FindCluster(ctx, e.t, privcluster.QueryOptions{Epsilon: ingestEpsilon, Delta: queryDelta, Seed: querySeed(i)})
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("cluster query at epoch %d: %w", e.ds.Epoch(), err)
	}
	e.live = append(e.live, pts...)
	if err := checkBall(e.live, c.Center, c.Radius, e.t); err != nil {
		return d, fmt.Errorf("cluster query seed=%d: %w", querySeed(i), err)
	}
	return d, nil
}
