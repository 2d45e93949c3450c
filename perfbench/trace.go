package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program:
// the layer's name, when the call started and ended (microseconds since
// the tracer began), the span that caused it (0 for a root) and the
// operation it belongs to (-1 for calls outside any operation).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps the traced run's spans in memory until write. A nil
// tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	tr *tracer
	id int
}

// start opens a span named name under parent (0 = root) for operation op.
func (t *tracer) start(name string, parent spanRef, op int) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Op: op, Name: name, Start: now, End: now})
	return spanRef{tr: t, id: id}
}

func (s spanRef) end() {
	if s.tr == nil {
		return
	}
	now := float64(time.Since(s.tr.t0).Nanoseconds()) / 1e3
	s.tr.mu.Lock()
	s.tr.spans[s.id-1].End = now
	s.tr.mu.Unlock()
}

// timed runs f inside a span and returns its duration in milliseconds.
func (t *tracer) timed(name string, parent spanRef, op int, f func()) float64 {
	s := t.start(name, parent, op)
	start := time.Now()
	f()
	d := time.Since(start)
	s.end()
	return float64(d.Nanoseconds()) / 1e6
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span name, the total self time in milliseconds —
// each span's duration minus the part of it its children cover — over the
// spans that satisfy keep.
func selfTimes(spans []span, keep func(span) bool) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		out[s.Name] += (s.End - s.Start - covered(s, children[s.ID])) / 1e3
	}
	return out
}

// covered is how much of parent's interval the children cover (overlaps
// counted once).
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// split is the traced run's per-layer table for a set of operations: each
// layer's self time per operation, the remainder of the operations'
// end-to-end latency no layer span covers, and the program's own stage
// split for the same operations beside it.
type split struct {
	ops       int
	e2eMS     float64            // summed end-to-end latency of the operations
	layers    map[string]float64 // summed self time per layer
	program   map[string]float64 // summed program stage time, by the program's stage name
	programOf map[string]string  // layer → the program stage it corresponds to
}

// unattributed is the end-to-end time per operation no layer span covers.
func (s split) unattributed() float64 {
	var sum float64
	for _, v := range s.layers {
		sum += v
	}
	return (s.e2eMS - sum) / float64(s.ops)
}

func (s split) lines(title string) []string {
	out := []string{fmt.Sprintf("per-layer split of %s (%d operations, %.3f ms/op end to end):", title, s.ops, s.e2eMS/float64(s.ops))}
	out = append(out, fmt.Sprintf("  %-22s %14s %22s %12s", "layer", "self ms/op", "program stage ms/op", "gap ms/op"))
	names := make([]string, 0, len(s.layers))
	for n := range s.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mine := s.layers[n] / float64(s.ops)
		line := fmt.Sprintf("  %-22s %14.3f", n, mine)
		if st, ok := s.programOf[n]; ok {
			theirs := s.program[st] / float64(s.ops)
			line += fmt.Sprintf(" %13s %8.3f %12.3f", st, theirs, theirs-mine)
		}
		out = append(out, line)
	}
	out = append(out, fmt.Sprintf("  %-22s %14.3f", "(unattributed)", s.unattributed()))
	if len(s.program) > 0 {
		stages := make([]string, 0, len(s.program))
		for st := range s.program {
			stages = append(stages, st)
		}
		sort.Strings(stages)
		var parts []string
		for _, st := range stages {
			parts = append(parts, fmt.Sprintf("%s=%.3f", st, s.program[st]/float64(s.ops)))
		}
		out = append(out, "  program's own split, ms/op: "+strings.Join(parts, " "))
	}
	return out
}
