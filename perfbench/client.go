package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"privcluster"
)

// op is one seeded operation a workload issues. Seed is the query's noise
// seed: a fixed function of the operation's position in the stream, so a
// run with the same workload seed does identical work.
type op struct {
	Kind   string // "cluster", "batch", "kcover", "interior" or "ingest"
	T      int
	Ts     []int // batch targets
	K      int
	InnerN int
	// Epsilon is the query's ε (0 means queryEpsilon).
	Epsilon float64
	Seed    int64
}

func (o op) epsilon() float64 {
	if o.Epsilon > 0 {
		return o.Epsilon
	}
	return queryEpsilon
}

// querySeed is the noise seed of stream position i (never 0, which the
// library reads as "seed from the clock").
func querySeed(i int) int64 { return 1_000_003*int64(i) + 17 }

// release is a parsed answer: the released balls (one per cluster, in
// order; a batch concatenates its queries' clusters) or an interior point.
type release struct {
	Centers [][]float64
	Radii   []float64
	Point   float64
}

// equal reports bit-identical releases.
func (r release) equal(o release) bool {
	if len(r.Centers) != len(o.Centers) || len(r.Radii) != len(o.Radii) ||
		math.Float64bits(r.Point) != math.Float64bits(o.Point) {
		return false
	}
	for i, c := range r.Centers {
		if len(c) != len(o.Centers[i]) || math.Float64bits(r.Radii[i]) != math.Float64bits(o.Radii[i]) {
			return false
		}
		for j, x := range c {
			if math.Float64bits(x) != math.Float64bits(o.Centers[i][j]) {
				return false
			}
		}
	}
	return true
}

func releaseOf(cs []privcluster.Cluster) release {
	var r release
	for _, c := range cs {
		r.Centers = append(r.Centers, c.Center)
		r.Radii = append(r.Radii, c.Radius)
	}
	return r
}

// daemonClient issues operations to privclusterd over HTTP as one
// principal.
type daemonClient struct {
	hc   *http.Client
	base string
	key  string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

type queryJSON struct {
	Dataset string  `json:"dataset,omitempty"`
	T       int     `json:"t,omitempty"`
	K       int     `json:"k,omitempty"`
	InnerN  int     `json:"inner_n,omitempty"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	Seed    int64   `json:"seed"`
}

// dataset names the served dataset an operation queries: the 1-D values
// for interior-point queries, the 2-D points otherwise.
func (o op) dataset() string {
	if o.Kind == "interior" {
		return "vals"
	}
	return "pts"
}

// endpoint and body of an operation.
func (o op) request() (string, any) {
	dataset := o.dataset()
	q := queryJSON{Dataset: dataset, T: o.T, K: o.K, InnerN: o.InnerN, Epsilon: o.epsilon(), Delta: queryDelta, Seed: o.Seed}
	switch o.Kind {
	case "batch":
		qs := make([]queryJSON, len(o.Ts))
		for i, t := range o.Ts {
			qs[i] = queryJSON{T: t, Epsilon: queryEpsilon, Delta: queryDelta, Seed: o.Seed + int64(i)}
		}
		return "/v1/query/batch", map[string]any{"dataset": dataset, "queries": qs}
	case "kcover":
		return "/v1/query/kcover", q
	case "interior":
		return "/v1/query/interior", q
	default:
		return "/v1/query/cluster", q
	}
}

// do sends one operation and returns the raw body and the daemon's trace
// ID. A transport error or a non-2xx status is an error.
func (c *daemonClient) do(ctx context.Context, o op) ([]byte, string, error) {
	path, body := o.request()
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(raw))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("X-API-Key", c.key)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode/100 != 2 {
		return nil, "", fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header.Get("X-Trace-Id"), nil
}

type clusterJSON struct {
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
}

// parseRelease decodes a successful response body of operation o.
func parseRelease(o op, body []byte) (release, error) {
	var r release
	add := func(c clusterJSON) {
		r.Centers = append(r.Centers, c.Center)
		r.Radii = append(r.Radii, c.Radius)
	}
	switch o.Kind {
	case "cluster":
		var c clusterJSON
		if err := json.Unmarshal(body, &c); err != nil {
			return r, err
		}
		add(c)
	case "kcover":
		var v struct{ Clusters []clusterJSON }
		if err := json.Unmarshal(body, &v); err != nil {
			return r, err
		}
		for _, c := range v.Clusters {
			add(c)
		}
	case "batch":
		var v struct {
			Results []struct {
				Clusters []clusterJSON
				Error    *struct{ Code, Message string }
			}
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return r, err
		}
		if len(v.Results) != len(o.Ts) {
			return r, fmt.Errorf("batch returned %d results for %d queries", len(v.Results), len(o.Ts))
		}
		for i, res := range v.Results {
			if res.Error != nil {
				return r, fmt.Errorf("batch query %d: %s: %s", i, res.Error.Code, res.Error.Message)
			}
			if len(res.Clusters) != 1 {
				return r, fmt.Errorf("batch query %d released %d clusters, want 1", i, len(res.Clusters))
			}
			add(res.Clusters[0])
		}
	case "interior":
		var v struct{ Point *float64 }
		if err := json.Unmarshal(body, &v); err != nil {
			return r, err
		}
		if v.Point == nil {
			return r, fmt.Errorf("interior response has no point")
		}
		r.Point = *v.Point
	default:
		return r, fmt.Errorf("unknown operation kind %q", o.Kind)
	}
	return r, nil
}

// truth is the benchmark's own copy of a workload's inputs, against which
// every release is checked.
type truth struct {
	points []privcluster.Point
	values interval
}

// check verifies a release of operation o against the generated inputs.
func (tr truth) check(o op, r release) error {
	switch o.Kind {
	case "interior":
		return tr.values.check(r.Point)
	case "kcover":
		return checkCover(tr.points, r.Centers, r.Radii, o.K, o.T)
	case "batch":
		if len(r.Centers) != len(o.Ts) {
			return fmt.Errorf("batch released %d balls for %d queries", len(r.Centers), len(o.Ts))
		}
		for i, t := range o.Ts {
			if err := checkBall(tr.points, r.Centers[i], r.Radii[i], t); err != nil {
				return fmt.Errorf("batch query %d: %w", i, err)
			}
		}
		return nil
	default:
		if len(r.Centers) != 1 {
			return fmt.Errorf("released %d balls, want 1", len(r.Centers))
		}
		return checkBall(tr.points, r.Centers[0], r.Radii[0], o.T)
	}
}
