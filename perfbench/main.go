// Command perfbench is the service benchmark of the privcluster module. It
// drives the program as users run it — privclusterd and shardserver as
// child processes — on inputs generated from a seed, checks every
// release, and prints one JSON result line:
//
//	perfbench --workload serve-warm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (latency
// measured at the client, untraced). With --trace 1 it carries the
// per-layer metrics instead: a shorter traced pass over the same
// workload plus timed calls into each layer's public functions, with the
// benchmark's own spans written to a JSON file (see README.md).
//
// run.py builds the binaries from source and runs this command; the
// workloads are defined in workloads.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string  // directory holding the privclusterd and shardserver binaries
	work     string  // scratch directory for CSVs, configs, ledgers and logs
	scale    float64 // multiplies serve-warm's dataset size (tests shrink it)
	setups   int     // set-ups per run; setup_s is their median
	spans    string  // where the traced run writes its spans
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadOrder, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory of the built privclusterd and shardserver")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory (emptied per run)")
	flag.Parse()
	cfg.scale, cfg.setups = 1, 3
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadOrder, ", "))
	}
	if cfg.seconds <= 0 || cfg.setups < 1 || cfg.scale <= 0 {
		return fmt.Errorf("need --seconds > 0, --setups ≥ 1 and --scale > 0")
	}
	for _, b := range []string{"privclusterd", "shardserver"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return fmt.Errorf("missing binary (build with run.py): %w", err)
		}
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(filepath.Dir(cfg.work), "spans-"+cfg.workload+".json")
	}
	cfg.work = filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	var res *outcome
	var err error
	if cfg.trace {
		res, err = runTraced(cfg, w)
	} else {
		res, err = runDaemon(cfg, w)
	}
	if err != nil {
		return err
	}
	for _, line := range res.lines {
		fmt.Println(line)
	}
	out := result{
		Correct:   res.correct && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metric, len(res.metrics)),
	}
	names := make([]string, 0, len(res.metrics))
	for name, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		out.Metrics[name] = m
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %14.4f %s\n", name, res.metrics[name].Value, res.metrics[name].Unit)
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outcome is what a workload run reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	lines     []string // human-readable report, printed before the JSON line
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}
