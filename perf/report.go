package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees that every untraced
// run prints in its JSON result, each gated by a bound; they must match
// BENCHMARK.json's end_to_end list. These are the ones a 2-CPU shared host
// measures steadily from seed to seed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_query", "us"},
	{"allocs_per_query", "count"},
	{"alloc_kb_per_query", "KiB"},
	{"heap_live_mb", "MiB"},
}

// endToEndReported are end-to-end metrics printed in the human-readable
// report of every untraced run but left out of the gated result: on a
// shared 2-CPU host their seed-to-seed spread (interquartile range over
// median, 0.1 to 0.9 depending on workload and percentile) is wider than
// any bound the gate accepts.
var endToEndReported = []metricDef{
	{"coord_p50_ms", "ms"},
	{"coord_p99_ms", "ms"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"goodput_qps", "1/s"},
}

// perLayer are the single-layer metrics printed by every traced run, zero
// where a layer does not take part in the workload; they must match
// BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"server.writes_per_query", "count"},
	{"server.write_us_per_query", "us"},
	{"server.bytes_out_per_query", "B"},
	{"server.bytes_in_per_query", "B"},
	{"client.submit_rtt_us_p50", "us"},
	{"client.submit_rtt_us_p99", "us"},
	{"client.writes_per_query", "count"},
	{"eqsql.parse_us_p50", "us"},
	{"eqsql.allocs_per_stmt", "count"},
	{"ir.parse_us_per_query", "us"},
	{"ir.allocs_per_query", "count"},
	{"engine.submit_open_us_p50", "us"},
	{"engine.submit_open_us_p99", "us"},
	{"engine.submit_closing_us_p50", "us"},
	{"engine.submit_closing_us_p99", "us"},
	{"engine.batch_us_per_query", "us"},
	{"engine.router_passes_per_query", "count"},
	{"engine.submit_locks_per_query", "count"},
	{"engine.evals_per_group", "count"},
	{"engine.eval_retries_per_eval", "ratio"},
	{"engine.eval_queue_depth_max", "count"},
	{"engine.flushes_per_kquery", "count"},
	{"engine.stale_frac", "ratio"},
	{"engine.families_retired_per_kquery", "count"},
	{"graph.build_us_per_group", "us"},
	{"match.match_us_per_group", "us"},
	{"match.combine_us_per_group", "us"},
	{"match.safety_us_per_query", "us"},
	{"memdb.compile_us_per_eval", "us"},
	{"memdb.exec_us_per_eval", "us"},
	{"memdb.plan_hit_ratio", "ratio"},
	{"memdb.load_us_per_stmt", "us"},
	{"wal.records_per_query", "count"},
	{"wal.bytes_per_query", "B"},
	{"wal.fsyncs_per_kquery", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_kquery", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.offered_qps", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

// perLayerReported are single-layer metrics a traced run prints, not
// gated, only where its workload measures them: wal.recover_s comes from
// durable_recover, which BENCHMARK.json leaves out.
var perLayerReported = []metricDef{
	{"wal.recover_s", "s"},
}

// Report accumulates a run's metadata, checks and metrics.
type Report struct {
	meta      [][2]string
	notes     []string
	failures  []Failure
	attempted int
	correct   bool
	metrics   map[string]float64
}

func newReport() *Report {
	return &Report{correct: true, metrics: make(map[string]float64)}
}

// Meta records one line of run metadata.
func (r *Report) Meta(key string, value any) {
	r.meta = append(r.meta, [2]string{key, fmt.Sprint(value)})
}

// Note records a free-form line for the human-readable report.
func (r *Report) Note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Set records a metric value.
func (r *Report) Set(name string, v float64) { r.metrics[name] = v }

// Attempt counts checked queries and records their failures.
func (r *Report) Attempt(n int, fs []Failure) {
	r.attempted += n
	r.failures = append(r.failures, fs...)
}

// Fail marks the run's outputs as not verified and says why.
func (r *Report) Fail(format string, args ...any) {
	r.correct = false
	r.Note("CHECK FAILED: "+format, args...)
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Print writes the human-readable report, with the extra metrics marked
// as not gated, followed by the one-line JSON result carrying the defs'
// metrics.
func (r *Report) Print(w io.Writer, defs, extra []metricDef) error {
	for _, kv := range r.meta {
		fmt.Fprintf(w, "meta %s=%s\n", kv[0], kv[1])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	failedQ := make(map[string]bool)
	for _, f := range r.failures {
		failedQ[fmt.Sprintf("%d/%d/%d", f.Phase, f.Group, f.Query)] = true
	}
	fmt.Fprintf(w, "outcomes attempted=%d failed=%d failed_frac=%.6f\n", r.attempted, len(failedQ), ratio(float64(len(failedQ)), float64(r.attempted)))
	for _, l := range summarizeFailures(r.failures, 1000) {
		fmt.Fprintln(w, "failure", l)
	}
	out := result{Correct: r.correct, Attempted: r.attempted, Failed: len(failedQ), Metrics: make(map[string]metricValue)}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-36s %14.6f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	for _, d := range extra {
		if v, ok := r.metrics[d.Name]; ok {
			fmt.Fprintf(w, "metric %-36s %14.6f %s (not gated)\n", d.Name, v, d.Unit)
		}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no queries were attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
