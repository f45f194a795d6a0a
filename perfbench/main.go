// Command perfbench is the repository benchmark. It drives four named
// workloads from one process — the Table-1 suite in-process, a warm and a
// cold served batch mix against one in-process lttad, and the warm mix
// against a coordinator over three in-process workers — checks every
// output for correctness outside the timed window, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// once untraced and once traced, writes the traced run's spans as Chrome
// trace_event JSON under .bench_build/traces/, and reports the
// per-layer metrics. README.md in this directory documents every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// unitMetric is one named metric with its unit.
type unitMetric struct {
	Name string
	Unit string
}

// e2eMetrics is the end-to-end roster every --trace 0 run prints, on
// every workload (README.md gives each metric's meaning per workload).
var e2eMetrics = []unitMetric{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"circuit_geomean_ms", "ms"},
	{"checks_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// tableCircuits are the Table-1 suite circuits in paper order; each has a
// harness.row_ms.<name> layer metric.
var tableCircuits = []string{"c17", "c432", "c499", "c880", "c1355", "c1908",
	"c2670", "c3540", "c5315", "c6288", "c7552"}

// layerMetrics is the per-layer roster every --trace 1 run prints. A
// metric whose layer the workload does not exercise reads 0.
var layerMetrics = func() []unitMetric {
	ms := []unitMetric{
		{"api.request_bytes", "bytes"},
		{"api.encode_us", "us"},
		{"api.event_decode_us", "us"},
		{"api.bytes_per_check", "bytes"},
		{"server.ttfb_ms", "ms"},
		{"server.exec_ms", "ms"},
		{"server.overhead_ms", "ms"},
		{"server.check_us", "us"},
		{"server.rejected", "count"},
		{"server.checks_run", "count"},
		{"server.netlist_parses", "count"},
		{"registry.hash_us", "us"},
		{"registry.prepares", "count"},
		{"registry.evictions", "count"},
		{"registry.resident_mb", "MB"},
		{"registry.hit_ratio", "ratio"},
		{"circuit.parse_us", "us"},
		{"verilog.parse_us", "us"},
		{"circuit.cone_us", "us"},
		{"core.prepare_ms", "ms"},
		{"core.cold_check_us", "us"},
		{"core.warm_check_us", "us"},
		{"constraint.fixpoint_us", "us"},
		{"constraint.propagations_per_check", "count"},
		{"constraint.narrowings_per_check", "count"},
		{"constraint.queue_high_water", "count"},
		{"core.warm_reuse", "ratio"},
		{"dom.gitd_us", "us"},
		{"dom.dominators_per_check", "count"},
		{"dom.rounds_per_check", "count"},
		{"core.stems_us", "us"},
		{"core.stem_splits", "count"},
		{"core.casean_us", "us"},
		{"core.backtracks", "count"},
		{"core.decisions", "count"},
		{"core.abandoned", "count"},
	}
	for _, c := range tableCircuits {
		ms = append(ms, unitMetric{"harness.row_ms." + c, "ms"})
	}
	return append(ms,
		unitMetric{"sim.replay_us", "us"},
		unitMetric{"coord.worker_ms", "ms"},
		unitMetric{"coord.overhead_ms", "ms"},
		unitMetric{"coord.dispatches_per_batch", "count"},
		unitMetric{"coord.requeues", "count"},
		unitMetric{"coord.hedges", "count"},
		unitMetric{"coord.duplicates_dropped", "count"},
		unitMetric{"coord.worker_uploads", "count"},
		unitMetric{"runtime.alloc_bytes_per_check", "bytes"},
		unitMetric{"runtime.gc_cycles", "count"},
		unitMetric{"runtime.gc_cpu_share", "ratio"},
		unitMetric{"trace.overhead", "ratio"},
	)
}()

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// traceDir is where traced runs write their span files, under the
// checkout's ignored build directory.
const traceDir = ".bench_build/traces"

// outcome is what a workload run reports: operation counts, failure
// descriptions, and the metric values of the requested roster.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
}

// fail records one failed operation with a description.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named traffic mix; README.md says why each exists.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"table1", runTable1},
	{"serve_warm", runServeWarm},
	{"serve_cold", runServeCold},
	{"cluster_warm", runClusterWarm},
}

// result is the last line of standard output.
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

// buildResult checks that the outcome carries exactly the roster's
// metrics and assembles the result line.
func buildResult(o *outcome, roster []unitMetric) (*result, error) {
	res := &result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted,
		Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range roster {
		v, ok := o.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(o.metrics) != len(roster) {
		var extra []string
		for k := range o.metrics {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the roster: %v", extra)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload name: table1, serve_warm, serve_cold or cluster_warm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	writeExpected := flag.String("write-expected", "", "regenerate the Table-1 expected rows into this file and exit")
	flag.Parse()

	if *writeExpected != "" {
		if err := writeExpectedRows(*writeExpected); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (table1|serve_warm|serve_cold|cluster_warm), --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}

	// Pin the scheduler to the machine's processors and record it, so
	// numbers from different machines are never compared unknowingly.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d go=%s GOMAXPROCS=%d\n",
		wl.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0))

	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	o, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	roster := e2eMetrics
	if cfg.trace {
		roster = layerMetrics
	}
	res, err := buildResult(o, roster)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: attempted=%d failed=%d failed_share=%.4f\n",
		o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// logf writes one diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
