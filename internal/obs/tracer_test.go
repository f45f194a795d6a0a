package obs_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// TestTracerSharedAcrossWorkers drives ONE obs.Tracer through a
// parallel RunAll (run with -race in CI): the merged histogram counts
// must equal the serial sweep's check count — every check observed
// exactly once, no event lost or double-counted under concurrency.
func TestTracerSharedAcrossWorkers(t *testing.T) {
	c := gen.Industrial(7, 24, 10)
	// Fresh verifier per sweep off one Prepared: the test compares
	// exact propagation sums, which the second sweep's warm-start memos
	// would otherwise legitimately shrink.
	prep := core.Prepare(c)
	v := prep.NewVerifier(core.Default())
	// δ = topological + 1: every output refutes, so neither sweep
	// early-exits and serial/parallel run identical check sets.
	delta := v.Topological().Add(1)

	serial := v.RunAll(context.Background(), core.Request{Delta: delta, Workers: 1})
	wantChecks := int64(len(serial.PerOutput))
	if wantChecks < 2 {
		t.Fatalf("industrial circuit has %d outputs; want a real sweep", wantChecks)
	}

	tr := obs.NewTracer()
	par := prep.NewVerifier(core.Default()).RunAll(context.Background(), core.Request{Delta: delta, Workers: 4, Tracer: tr})
	if par.Final != serial.Final {
		t.Fatalf("parallel verdict %s != serial %s", par.Final, serial.Final)
	}

	if got := tr.Checks(); got != wantChecks {
		t.Fatalf("tracer observed %d checks, serial sweep ran %d", got, wantChecks)
	}
	s := tr.Snapshot()
	if got := s.TotalChecks(); got != wantChecks {
		t.Fatalf("snapshot counts %d checks, want %d", got, wantChecks)
	}
	for _, h := range []obs.HistSnapshot{s.CheckSeconds, s.Propagations, s.QueueHighWater} {
		if h.Count != uint64(wantChecks) {
			t.Fatalf("histogram observed %d checks, want %d", h.Count, wantChecks)
		}
	}
	// Stage histogram totals must cover exactly the stages the serial
	// sweep ran: every check runs the plain fixpoint once.
	if got := s.StageSeconds[core.StagePlain].Count; got != uint64(wantChecks) {
		t.Fatalf("fixpoint stage observed %d runs, want %d", got, wantChecks)
	}
	// Aggregate work must match the serial sweep's exact counters.
	var wantProps int64
	for _, rep := range serial.PerOutput {
		wantProps += rep.Propagations
	}
	if s.Propagations.Sum != wantProps {
		t.Fatalf("propagation histogram sum %d, serial sweep did %d", s.Propagations.Sum, wantProps)
	}
}

// TestTracerTotalsMatchReports checks that a tracer's flat totals
// agree with the report sums of the checks it observed: checks,
// propagations, backtracks, and case-analysis decisions.
func TestTracerTotalsMatchReports(t *testing.T) {
	for _, e := range gen.SubstituteSuite() {
		switch e.Name {
		case "c17", "c432", "c880":
		default:
			continue
		}
		prep := core.Prepare(e.Circuit)
		res, err := prep.NewVerifier(core.Default()).CircuitFloatingDelayCtx(context.Background(), core.Request{})
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []waveform.Time{res.Delay.Add(1), res.Delay} {
			tr := obs.NewTracer()
			cr := prep.NewVerifier(core.Default()).RunAll(context.Background(),
				core.Request{Delta: delta, Workers: 1, Tracer: tr})
			s := tr.Snapshot()
			if got := s.TotalChecks(); got != int64(len(cr.PerOutput)) {
				t.Fatalf("%s: tracer saw %d checks, aggregate kept %d", e.Name, got, len(cr.PerOutput))
			}
			if s.Propagations.Sum != cr.Propagations {
				t.Fatalf("%s: tracer propagations %d != aggregate %d", e.Name, s.Propagations.Sum, cr.Propagations)
			}
			if int(s.Backtracks.Sum) != cr.Backtracks {
				t.Fatalf("%s: tracer backtracks %d != aggregate %d", e.Name, s.Backtracks.Sum, cr.Backtracks)
			}
			var wantDec int64
			for _, r := range cr.PerOutput {
				wantDec += r.Stats.Decisions
			}
			if s.Decisions != wantDec {
				t.Fatalf("%s: tracer decisions %d != report sum %d", e.Name, s.Decisions, wantDec)
			}
			if line := s.Totals(); !strings.HasPrefix(line, fmt.Sprintf("checks %d (", len(cr.PerOutput))) {
				t.Fatalf("%s: totals line %q does not lead with the check count", e.Name, line)
			}
		}
	}
}

// TestTracerShardMerge aggregates two shard tracers — the
// one-tracer-per-worker deployment style — and checks the merged
// snapshot equals a single shared tracer's view.
func TestTracerShardMerge(t *testing.T) {
	c := gen.CarrySkipAdder(16, 4, 10)
	v := core.NewVerifier(c, core.Default())
	delta := v.Topological().Add(1)

	shard1, shard2 := obs.NewTracer(), obs.NewTracer()
	v.RunAll(context.Background(), core.Request{Delta: delta, Workers: 2, Tracer: shard1})
	v.RunAll(context.Background(), core.Request{Delta: delta, Workers: 2, Tracer: shard2})

	merged := shard1.Snapshot()
	if err := merged.Merge(shard2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if want := shard1.Checks() + shard2.Checks(); merged.TotalChecks() != want {
		t.Fatalf("merged %d checks, want %d", merged.TotalChecks(), want)
	}
	if merged.CheckSeconds.Count != uint64(merged.TotalChecks()) {
		t.Fatalf("latency histogram %d observations for %d checks",
			merged.CheckSeconds.Count, merged.TotalChecks())
	}
}

// TestTracerExposition registers a tracer and checks the rendered
// exposition validates with one histogram per pipeline stage.
func TestTracerExposition(t *testing.T) {
	c := gen.C17(10)
	v := core.NewVerifier(c, core.Default())
	tr := obs.NewTracer()
	v.RunAll(context.Background(), core.Request{Delta: v.Topological().Add(1), Tracer: tr})

	reg := obs.NewRegistry()
	tr.MustRegister(reg, "ltta")
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	fams, err := obs.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("tracer exposition invalid: %v\n%s", err, buf.String())
	}
	var stageFam *obs.PromFamily
	for i := range fams {
		if fams[i].Name == "ltta_stage_duration_seconds" {
			stageFam = &fams[i]
		}
	}
	if stageFam == nil || stageFam.Type != "histogram" {
		t.Fatalf("no ltta_stage_duration_seconds histogram family:\n%s", buf.String())
	}
	stages := map[string]bool{}
	for _, s := range stageFam.Samples {
		stages[s.Labels["stage"]] = true
	}
	for st := core.Stage(0); st < core.NumStages; st++ {
		if !stages[st.String()] {
			t.Errorf("stage %s has no histogram series", st)
		}
	}
	if !strings.Contains(buf.String(), `ltta_checks_total{verdict="no_violation"}`) {
		t.Errorf("exposition missing per-verdict check counters:\n%s", buf.String())
	}
}

// TestTracerSummary smoke-tests the human-readable percentile dump.
func TestTracerSummary(t *testing.T) {
	c := gen.C17(10)
	v := core.NewVerifier(c, core.Default())
	tr := obs.NewTracer()
	v.RunAll(context.Background(), core.Request{Delta: v.Topological().Add(1), Tracer: tr})
	var buf bytes.Buffer
	tr.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"stage fixpoint", "check latency", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
