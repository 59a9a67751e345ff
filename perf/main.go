// Command perf is the repository's end-to-end benchmark. It drives the
// entangled-query system the way its users do — over a loopback d3cd
// (entangle.Open + server.New + Serve + Run, wired as cmd/d3cd wires them)
// or in process through entangle.System — on the paper's 82,168-user
// social substrate, checks every outcome against an engine-independent
// oracle, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perf/run.sh --workload pairs_wire --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run measures half the phase untraced and half traced, and prints the
// per-layer metrics (spans recorded around calls into each layer, replays
// of the workload's own inputs through each layer's public functions,
// engine Stats deltas, wire counters and runtime/metrics).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	WorkDir  string // scratch directory inside the checkout
	Gens     int    // generator goroutines
	Conns    int    // client connections
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(runConfig, *Report) error{
	"pairs_wire":         runPairsWire,
	"groups_setatatime":  runGroupsSetAtATime,
	"durable_batch_wire": runDurableBatchWire,
	"durable_recover":    runDurableRecover,
}

// setupRepeats is how many times a run builds its whole set-up; setup_s is
// the median.
const setupRepeats = 3

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload name: pairs_wire, groups_setatatime, durable_batch_wire or durable_recover")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed (the substrate itself is always seed 42)")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "scratch directory for data dirs and trace files")
	flag.Parse()
	cfg.Trace = trace == 1
	if err := run(cfg, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, workDir string) error {
	drive, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	// One process, at most nproc generator goroutines and at most nproc
	// connections, never more than two of either; loadGuard checks what
	// the workload actually ran.
	nproc := runtime.NumCPU()
	cfg.Gens, cfg.Conns = min(2, nproc), min(2, nproc)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	cfg.WorkDir = dir

	rep := newReport()
	rep.Meta("workload", cfg.Workload)
	rep.Meta("seed", cfg.Seed)
	rep.Meta("seconds", cfg.Seconds)
	rep.Meta("trace", cfg.Trace)
	rep.Meta("nproc", nproc)
	rep.Meta("gomaxprocs", runtime.GOMAXPROCS(0))
	rep.Meta("go_version", runtime.Version())
	rep.Meta("generator_cap", cfg.Gens)
	rep.Meta("connection_cap", cfg.Conns)
	rep.Meta("setup_repeats", setupRepeats)
	if err := drive(cfg, rep); err != nil {
		return err
	}
	gens, conns := liveGens.peak.Load(), liveConns.peak.Load()
	rep.Meta("peak_generators", gens)
	rep.Meta("peak_connections", conns)
	if err := loadGuard(gens, conns, nproc); err != nil {
		return err
	}
	if cfg.Trace {
		return rep.Print(os.Stdout, perLayer, perLayerReported)
	}
	return rep.Print(os.Stdout, endToEnd, endToEndReported)
}

// liveCount tracks how many of something run at once and the most that
// ever did.
type liveCount struct{ now, peak atomic.Int64 }

func (c *liveCount) add(n int64) {
	v := c.now.Add(n)
	for p := c.peak.Load(); v > p && !c.peak.CompareAndSwap(p, v); p = c.peak.Load() {
	}
}

// liveGens counts running generator goroutines (open-loop senders and
// closed-loop submitters); liveConns counts open client connections.
var liveGens, liveConns liveCount

// loadGuard refuses a run that had more generator goroutines or client
// connections running at once than the host has CPUs.
func loadGuard(gens, conns int64, nproc int) error {
	if gens > int64(nproc) || conns > int64(nproc) {
		return fmt.Errorf("load guard: %d generator goroutines and %d connections at once on %d CPUs (at most nproc of each)", gens, conns, nproc)
	}
	return nil
}

// traceFile returns where a traced run writes its spans.
func traceFile(cfg runConfig) string {
	return filepath.Join(filepath.Dir(cfg.WorkDir), fmt.Sprintf("trace-%s-%d.jsonl", cfg.Workload, cfg.Seed))
}

// timeSetups builds the set-up n times and returns the median wall time
// and the last environment; earlier ones are torn down before the next
// build starts.
func timeSetups[E interface{ Close() }](n int, build func(i int) (E, error)) (E, float64, error) {
	var env E
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			env.Close()
			runtime.GC()
		}
		t0 := time.Now()
		e, err := build(i)
		if err != nil {
			var zero E
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		env = e
	}
	return env, median(secs), nil
}
