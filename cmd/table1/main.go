// Command table1 regenerates Table 1 of the paper on the ISCAS'85
// substitute suite: for every circuit it computes the exact
// floating-mode delay, then reports which stage decides the δ+1
// (refutation) and δ (test vector) checks, with backtrack counts and
// CPU times.
//
// Usage:
//
//	table1 [-budget N] [-only circuit] [-hist]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	budget := flag.Int("budget", 25000, "case-analysis backtrack budget per check (the paper abandons c6288-class searches; raise for exhaustive runs)")
	only := flag.String("only", "", "run a single suite circuit by name (e.g. c1908)")
	asJSON := flag.Bool("json", false, "emit rows as JSON instead of the text table")
	workers := flag.Int("parallel", 1, "fan per-output checks over N workers (verdicts unchanged)")
	stats := flag.Bool("stats", false, "print aggregated engine telemetry after the table")
	hist := flag.Bool("hist", false, "print latency/work distributions (p50/p90/p99 per stage) after the table")
	pprofLabels := flag.Bool("pprof-labels", false, "tag parallel per-output checks with pprof labels")
	flag.Parse()

	entries := gen.SubstituteSuite()
	if *only != "" {
		var filtered []gen.SuiteEntry
		for _, e := range entries {
			if e.Name == *only {
				filtered = append(filtered, e)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "table1: no suite circuit named %q\n", *only)
			os.Exit(1)
		}
		entries = filtered
	}

	if !*asJSON {
		fmt.Println("Table 1 — ISCAS'85 substitute suite (NOR implementations, d=10 per gate)")
		fmt.Println("Substitutes are synthetic stand-ins of comparable structure; see DESIGN.md §4.")
		fmt.Println()
	}
	var tracer *obs.Tracer
	var opts []harness.RowOption
	if *stats || *hist {
		tracer = obs.NewTracer()
		opts = append(opts, harness.WithTracer(tracer))
	}
	if *pprofLabels {
		opts = append(opts, harness.WithPprofLabels())
	}
	var rows []harness.Table1Row
	for _, e := range entries {
		rows = append(rows, harness.CircuitRowsParallel(e.Name, e.Circuit, *budget, *workers, opts...)...)
		// Render incrementally so long runs show progress.
	}
	if *asJSON {
		if err := harness.WriteJSON(os.Stdout, rows); err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		if *stats {
			snap := tracer.Snapshot()
			fmt.Fprintln(os.Stderr, "engine:", snap.Totals())
		}
		if *hist {
			tracer.WriteSummary(os.Stderr)
		}
		return
	}
	harness.RenderTable1(os.Stdout, rows)
	fmt.Println()
	fmt.Println("Legend: P possible violation, N no violation, V test vector found,")
	fmt.Println("        A abandoned, C cancelled, - stage not needed,")
	fmt.Println("        E exact floating delay, U upper bound.")
	if *stats {
		snap := tracer.Snapshot()
		fmt.Println()
		fmt.Println("engine:", snap.Totals())
	}
	if *hist {
		fmt.Println()
		tracer.WriteSummary(os.Stdout)
	}
}
