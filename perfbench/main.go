// Command perfbench is the repository's benchmark. It drives the
// simulator through runner.Run and runner.RunWorkload on three workloads
// (fleet, jobs, churn), checks every simulation's outputs, and prints one
// JSON result line.
//
// Usage:
//
//	perfbench --workload fleet|jobs|churn [--seed 42] [--seconds 25] [--trace 0|1]
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing beyond a one-shot observer that marks the end of set-up. With
// --trace 1 it reports the per-layer metrics: CPU self time per internal
// package from a phase-labelled CPU profile, event spans from a fire
// observer, and the model's counts. README.md lists the metrics and which
// end-to-end figure each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"sim_slot_s_per_gb", "s/GB"},
}

// perLayer are the --trace 1 metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"speculate.loop_self_s", "s"},
		{"speculate.launched", "count"},
		{"speculate.won_frac", "fraction"},
		{"core.loop_self_s", "s"},
		{"core.tasks_sized", "count"},
		{"core.productivity_mean", "fraction"},
		{"yarn.loop_self_s", "s"},
		{"engine.loop_self_s", "s"},
		{"engine.map_attempts", "count"},
		{"engine.wasted_attempt_frac", "fraction"},
		{"dfs.setup_self_s", "s"},
		{"dfs.loop_self_s", "s"},
		{"dfs.local_bu_frac", "fraction"},
		{"dfs.remote_mb", "MB"},
		{"net.loop_self_s", "s"},
		{"net.cross_rack_mb", "MB"},
		{"faults.loop_self_s", "s"},
		{"elastic.loop_self_s", "s"},
		{"elastic.node_hours", "h"},
		{"randutil.setup_self_s", "s"},
		{"sim.loop_self_s", "s"},
		{"sim.events", "count"},
		{"sim.events_after_finish", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.span_s", "sim-s"},
		{"sim.job_p50_s", "sim-s"},
		{"sim.job_p90_s", "sim-s"},
		{"runner.loop_self_s", "s"},
		{"gc.self_s", "s"},
		{"gc.cycles", "count"},
		{"gc.mallocs_per_event", "count"},
		{"trace.emit_s", "s"},
		{"trace.allocs_per_event", "count"},
		{"other.self_s", "s"},
		{"bench.hook_self_s", "s"},
		{"bench.trace_overhead_s", "s"},
	}
	for _, kind := range eventKinds {
		defs = append(defs,
			metricDef{"event." + kind + ".n", "count"},
			metricDef{"event." + kind + ".self_s", "s"})
	}
	return defs
}()

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// violations names each failed correctness check (printed to stderr).
	violations []string
}

// newResult pairs computed values with their units. It fails if the
// values do not cover defs exactly, or if a value is not finite.
func newResult(st runStats, values map[string]float64, defs []metricDef) (*result, error) {
	if len(values) != len(defs) {
		return nil, fmt.Errorf("computed %d metrics, want %d", len(values), len(defs))
	}
	r := &result{
		Correct:    len(st.violations) == 0 && st.failed == 0,
		Attempted:  st.attempted,
		Failed:     st.failed,
		Metrics:    map[string]metricValue{},
		violations: st.violations,
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

func main() {
	name := flag.String("workload", "", "workload: fleet, jobs or churn")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 25, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if !contains(workloadNames, *name) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	// One processor: the simulating goroutine, the garbage collector and
	// the heap watch take turns on it, so the process's CPU time, which
	// the host times are, counts the program's work and no idle spinning
	// of a second processor.
	runtime.GOMAXPROCS(1)

	budget := time.Duration(*seconds) * time.Second
	run := timedRun
	if *traced == 1 {
		run = tracedRun
	}
	res, err := run(*name, fullShape, *seed, budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printSummary(os.Stderr, *name, *seed, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printSummary writes the metrics one per line, then any correctness
// violations by name.
func printSummary(w *os.File, name string, seed int64, r *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d: correct=%v attempted=%d failed=%d (jobs_failed_frac %.4f)\n",
		name, seed, r.Correct, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, v := range r.violations {
		fmt.Fprintln(w, "  VIOLATION", v)
	}
}
