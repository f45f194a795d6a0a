// Command ltta is the timing-analysis front end: it loads a .bench
// netlist and runs floating-mode timing checks with last-transition-
// time constraint propagation.
//
// Usage:
//
//	ltta -c circuit.bench [-d defaultDelay] [-o output] [-delta N]
//	ltta -c circuit.bench -exact [-o output]
//	ltta -c circuit.bench -sta
//	ltta -c circuit.v -exact          (structural Verilog by extension)
//	ltta -c circuit.bench -sdf t.sdf  (back-annotate delays)
//
// With -delta, the timing check (output, δ) is run through the full
// pipeline (narrowing, dominators, learning, stem correlation, case
// analysis). With -exact, the exact floating-mode delay of the output
// (or of the whole circuit when no -o is given) is computed. With
// -sta, only the classical topological analysis is printed.
//
// Observability and control:
//
//	-timeout D    bound every check by the wall-clock duration D; an
//	              interrupted check reports the verdict C (cancelled)
//	-stats        print aggregated engine telemetry (propagations,
//	              narrowings, backtracks, per-stage CPU) after the run
//	-trace        stream engine events (stages, decisions, backtracks,
//	              stem splits) as text; for a single-output -delta
//	              check, also print the plain-fixpoint narrowing listing
//	-trace-json   like -trace but one JSON object per event
//	-trace-out F  record every check as a Chrome trace_event timeline
//	              and write it to F — load in Perfetto (ui.perfetto.dev)
//	              or chrome://tracing; parallel checks get worker lanes
//	-hist         print latency/work distributions (p50/p90/p99 per
//	              pipeline stage) after the run
//	-workers N    fan whole-circuit checks over N workers (0 = all
//	              CPUs); the aggregate verdict is identical to serial
//	-debug-addr A serve /debug/pprof on address A while the run
//	              executes
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // register /debug/pprof on the default mux
	"os"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/verilog"
	"repro/internal/waveform"
)

func main() {
	file := flag.String("c", "", "input .bench netlist (required)")
	defDelay := flag.Int64("d", 10, "default gate delay for gates without a !delay directive")
	output := flag.String("o", "", "primary output to check (default: all)")
	deltaF := flag.Int64("delta", -1, "timing check threshold δ")
	exact := flag.Bool("exact", false, "compute the exact floating-mode delay")
	sta := flag.Bool("sta", false, "print the classical topological analysis only")
	budget := flag.Int("budget", 200000, "case-analysis backtrack budget")
	maxProps := flag.Int64("max-propagations", 0, "abandon a check past this many gate-constraint applications (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound per check (0 = none); an expired check reports C (cancelled)")
	workers := flag.Int("workers", 1, "fan whole-circuit checks over N workers (0 = all CPUs)")
	noDom := flag.Bool("no-dominators", false, "disable dynamic timing dominators")
	noLearn := flag.Bool("no-learning", false, "disable static learning")
	noStem := flag.Bool("no-stems", false, "disable stem correlation")
	sdfFile := flag.String("sdf", "", "back-annotate gate delays from an SDF file")
	trace := flag.Bool("trace", false, "stream engine trace events as text (plus the plain-fixpoint narrowing listing on single-output -delta checks)")
	traceJSON := flag.Bool("trace-json", false, "stream engine trace events as JSON")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event timeline (Perfetto-loadable) to this file")
	hist := flag.Bool("hist", false, "print latency/work distributions (p50/p90/p99 per stage) after the run")
	stats := flag.Bool("stats", false, "print aggregated engine telemetry after the run")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof on this address during the run")
	flag.Parse()

	if *file == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*file)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	var c *circuit.Circuit
	if strings.HasSuffix(*file, ".v") {
		c, err = verilog.Read(f, verilog.Options{DefaultDelay: *defDelay})
	} else {
		c, err = circuit.ReadBench(f, circuit.BenchOptions{DefaultDelay: *defDelay, Name: *file})
	}
	if err != nil {
		fatal(err)
	}
	st := c.Stats()
	fmt.Printf("%s: %d gates, %d nets, %d PIs, %d POs, %d levels\n",
		c.Name, st.Gates, st.Nets, st.PIs, st.POs, st.Levels)

	if *sdfFile != "" {
		sf, err := os.Open(*sdfFile)
		if err != nil {
			fatal(err)
		}
		an, err := sdf.Apply(c, sf)
		sf.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("SDF %q: annotated %d gates (%d instances unmatched)\n",
			an.Design, an.Applied, len(an.Missing))
	}

	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ltta: debug server:", err)
			}
		}()
		fmt.Printf("debug server on %s (/debug/pprof)\n", *debugAddr)
	}

	if *sta {
		a := delay.New(c)
		fmt.Printf("topological delay: %s\n", a.Topological())
		s := delay.Run(c, a.Topological())
		for i, po := range c.PrimaryOutputs() {
			fmt.Printf("  %-12s arrival %s\n", c.Net(po).Name, s.OutputArrival[i])
		}
		fmt.Printf("critical path:")
		for _, n := range s.CriticalPath {
			fmt.Printf(" %s", c.Net(n).Name)
		}
		fmt.Println()
		return
	}

	opts := core.Default()
	opts.MaxBacktracks = *budget
	opts.UseDominators = !*noDom
	opts.UseLearning = !*noLearn
	opts.UseStemCorrelation = !*noStem
	v := core.NewVerifier(c, opts)
	fmt.Printf("topological delay: %s\n", v.Topological())

	var sink circuit.NetID = circuit.InvalidNet
	if *output != "" {
		id, ok := c.NetByName(*output)
		if !ok {
			fatal(fmt.Errorf("no net named %q", *output))
		}
		sink = id
	}

	// Assemble the request shared by every engine call: budgets,
	// per-check deadline, tracer chain.
	var engTracer *obs.Tracer
	var spans *obs.SpanRecorder
	var tracers []core.Tracer
	if *stats || *hist {
		engTracer = obs.NewTracer()
		tracers = append(tracers, engTracer)
	}
	if *traceOut != "" {
		spans = obs.NewSpanRecorder(c)
		tracers = append(tracers, spans)
	}
	switch {
	case *traceJSON:
		tracers = append(tracers, core.NewJSONTraceWriter(os.Stdout, c))
	case *trace:
		tracers = append(tracers, core.NewTraceWriter(os.Stdout, c))
	}
	req := core.Request{
		Budgets: core.Budgets{MaxPropagations: *maxProps},
		Tracer:  core.MultiTracer(tracers...),
		Workers: *workers,
	}
	// A -timeout bounds each individual check; the deadline restarts
	// per engine call via the request's Deadline field.
	perCheck := func() core.Request {
		r := req
		if *timeout > 0 {
			r.Deadline = time.Now().Add(*timeout)
		}
		return r
	}
	ctx := context.Background()

	switch {
	case *exact:
		if sink != circuit.InvalidNet {
			res, err := v.ExactFloatingDelayCtx(ctx, sink, perCheck())
			reportDelayErr(err)
			printDelay(c, *output, res)
		} else {
			res, err := v.CircuitFloatingDelayCtx(ctx, perCheck())
			reportDelayErr(err)
			printDelay(c, "circuit", res)
		}
	case *deltaF >= 0:
		d := waveform.Time(*deltaF)
		if sink != circuit.InvalidNet {
			if *trace {
				printTrace(c, sink, d)
			}
			r := perCheck()
			r.Sink, r.Delta = sink, d
			rep := v.Run(ctx, r)
			printReport(c, v, *output, rep)
		} else {
			r := perCheck()
			r.Delta = d
			cr := v.RunAll(ctx, r)
			fmt.Printf("check (all outputs, %s): %s\n", d, cr.Final)
			fmt.Printf("  stages: before-GITD %s, after-GITD %s, after-stems %s, CA %s (%d backtracks)\n",
				cr.BeforeGITD, cr.AfterGITD, cr.AfterStem, cr.CaseAnalysis, cr.Backtracks)
			fmt.Printf("  work: %d propagations, %d dominators, %d dominator rounds over %d outputs\n",
				cr.Propagations, cr.Dominators, cr.DominatorRounds, len(cr.PerOutput))
			if cr.Final == core.ViolationFound {
				rep := cr.PerOutput[cr.WitnessOutput]
				fmt.Printf("  witness on %s: vector %s, settle %s\n",
					c.Net(c.PrimaryOutputs()[cr.WitnessOutput]).Name, rep.Witness, rep.WitnessSettle)
			}
		}
	default:
		fatal(fmt.Errorf("one of -delta, -exact, or -sta is required"))
	}

	if *stats {
		snap := engTracer.Snapshot()
		fmt.Printf("engine: %s\n", snap.Totals())
	}
	if *hist {
		engTracer.WriteSummary(os.Stdout)
	}
	if spans != nil {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := spans.WriteTrace(tf); err != nil {
			tf.Close()
			fatal(err)
		}
		if err := tf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events written to %s (load in Perfetto or chrome://tracing)\n",
			spans.Len(), *traceOut)
	}
}

// reportDelayErr surfaces a cancelled delay search without discarding
// the partial bracket the caller still prints.
func reportDelayErr(err error) {
	if err == nil {
		return
	}
	if err == context.DeadlineExceeded || err == context.Canceled {
		fmt.Println("search cancelled; the reported delay is the partial bracket so far")
		return
	}
	fatal(err)
}

func printDelay(c *circuit.Circuit, what string, res *core.DelayResult) {
	if res == nil {
		return
	}
	kind := "exact floating-mode delay"
	if !res.Exact {
		kind = "floating-mode delay upper bound"
	}
	fmt.Printf("%s of %s: %s (%d checks, %d backtracks)\n", kind, what, res.Delay, res.Checks, res.Backtracks)
	if res.Exact && len(res.Witness) > 0 {
		fmt.Printf("  witness vector (PI order): %s\n", res.Witness)
	}
}

func printReport(c *circuit.Circuit, v *core.Verifier, out string, rep *core.Report) {
	fmt.Printf("check (%s, %s): %s\n", out, rep.Delta, rep.Final)
	fmt.Printf("  stages: before-GITD %s, after-GITD %s, after-stems %s, CA %s\n",
		rep.BeforeGITD, rep.AfterGITD, rep.AfterStem, rep.CaseAnalysis)
	if rep.Backtracks >= 0 {
		fmt.Printf("  backtracks: %d\n", rep.Backtracks)
	}
	if rep.Final == core.Cancelled {
		fmt.Printf("  cancelled: deadline or interrupt before a verdict; raise -timeout to decide\n")
	}
	if rep.Final == core.ViolationFound {
		fmt.Printf("  witness: vector %s, settle %s\n", rep.Witness, rep.WitnessSettle)
		if path, err := v.WitnessPath(rep.Sink, rep.Witness); err == nil {
			fmt.Printf("  sensitised path:")
			for _, n := range path {
				fmt.Printf(" %s", c.Net(n).Name)
			}
			fmt.Println()
		}
	}
	fmt.Printf("  %d dominators on first round, %d propagations, %d narrowings, queue high-water %d, %.3fs\n",
		rep.Dominators, rep.Propagations, rep.Stats.Narrowings, rep.Stats.QueueHighWater, rep.Elapsed.Seconds())
}

// printTrace replays the plain fixpoint of the check with the
// narrowing trace enabled (the paper's Example-2-style listing).
func printTrace(c *circuit.Circuit, sink circuit.NetID, d waveform.Time) {
	sys := constraint.New(c)
	step := 0
	sys.SetTraceFunc(func(n circuit.NetID, old, new waveform.Signal) {
		step++
		fmt.Printf("  [%4d] %-12s %s -> %s\n", step, c.Net(n).Name, old, new)
	})
	fmt.Printf("propagation trace (plain fixpoint, δ=%s):\n", d)
	sys.Narrow(sink, waveform.CheckOutput(d))
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		fmt.Printf("  fixpoint inconsistent at %s: no violation\n", c.Net(sys.EmptyNet()).Name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ltta:", err)
	os.Exit(1)
}
