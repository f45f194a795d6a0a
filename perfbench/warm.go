package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// warmCircuit is one circuit of the warm working set with its δ-sweep
// (ascending, as a delay search sends them) and the serial in-process
// reference verdict of every (δ, output) check.
type warmCircuit struct {
	name    string
	bench   string
	c       *circuit.Circuit // parsed from bench, exactly as the server parses it
	hash    api.Hash
	deltas  []int64
	arrival []int64    // per primary output
	ref     [][]string // [δ index][output index] verdict
}

// warmSet is the working set: an industrial block plus mid-size suite
// circuits, each swept over a few δ at and just below its topological
// delay, where plain narrowing and dominators decide most checks.
func warmSet() ([]*warmCircuit, error) {
	offsets := map[string][]int64{
		"industrial": {0, 1},
		"c432":       {0, 1},
		"c880":       {0, 1},
		"c1908":      {-40, -20, 0, 1},
		"c2670":      {-40, -20, 0, 1},
		"c7552":      {0, 1},
	}
	srcs := map[string]*circuit.Circuit{"industrial": gen.Industrial(7, 48, 10)}
	for _, e := range gen.SubstituteSuite() {
		srcs[e.Name] = e.Circuit
	}
	var out []*warmCircuit
	for _, name := range []string{"industrial", "c432", "c880", "c1908", "c2670", "c7552"} {
		bench := circuit.BenchString(srcs[name])
		c, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		wc := &warmCircuit{name: name, bench: bench, c: c}
		a := delay.New(c)
		top := int64(a.Topological())
		for _, off := range offsets[name] {
			wc.deltas = append(wc.deltas, top+off)
		}
		for _, po := range c.PrimaryOutputs() {
			wc.arrival = append(wc.arrival, int64(a.Arrival(po)))
		}
		out = append(out, wc)
	}
	return out, nil
}

// reference computes every check serially in-process, cold, with the
// paper's full configuration.
func (wc *warmCircuit) reference() {
	v := core.Prepare(wc.c).NewVerifier(core.Default())
	for _, d := range wc.deltas {
		var row []string
		for _, po := range wc.c.PrimaryOutputs() {
			rep := v.Run(context.Background(), core.Request{Sink: po, Delta: waveform.Time(d)})
			row = append(row, rep.Final.String())
		}
		wc.ref = append(wc.ref, row)
	}
}

func (wc *warmCircuit) checks() int { return len(wc.deltas) * len(wc.arrival) }

// warmSuiteLen is the batches per suite: every circuit twice, in a seeded
// order.
func warmSuiteLen(set []*warmCircuit) int { return 2 * len(set) }

// warmKind picks batch i's circuit.
func warmKind(seed int64, set []*warmCircuit, i int) int {
	n := warmSuiteLen(set)
	perm := rand.New(rand.NewSource(seed*7919 + int64(i/n))).Perm(n)
	return perm[i%n] % len(set)
}

// warmBatch sends one warm-started δ-sweep by hash.
func warmBatch(c *caller, wc *warmCircuit, rec *batchRecord, traced bool) error {
	req := &api.Request{Sweep: &api.SweepSpec{Deltas: wc.deltas}, Options: &api.OptionsSpec{WarmStart: true}}
	if traced {
		rec.traceID = api.NewTraceID()
		req.Trace = &api.TraceContext{TraceID: rec.traceID}
	}
	rec.sent = time.Now()
	return c.stream(context.Background(), rec, "/v1/circuits/"+string(wc.hash)+"/check", req)
}

// checkWarm applies the oracles to one batch as soon as it completes —
// after its latency is taken — and keeps only the outcome, so the
// client's memory does not grow with the batches it sends.
func checkWarm(wc *warmCircuit, r *batchRecord) {
	defer func() { r.checks = nil }()
	if r.err != "" {
		return
	}
	want := wc.checks()
	if len(r.checks) != want || r.doneChecks != want {
		r.problem(fmt.Sprintf("batch %d (%s): %d check events, done.checksRun %d, want %d",
			r.idx, wc.name, len(r.checks), r.doneChecks, want))
		return
	}
	seen := make([]bool, want)
	for _, ck := range r.checks {
		di := -1
		for j, d := range wc.deltas {
			if d == ck.delta {
				di = j
			}
		}
		if di < 0 || ck.index < 0 || ck.index >= len(wc.arrival) || seen[di*len(wc.arrival)+ck.index] {
			r.problem(fmt.Sprintf("batch %d (%s): unexpected or duplicate check (output %d, δ=%d)", r.idx, wc.name, ck.index, ck.delta))
			return
		}
		seen[di*len(wc.arrival)+ck.index] = true
		po := wc.c.PrimaryOutputs()[ck.index]
		r.verify(wc.c, po, ck, wc.ref[di][ck.index], wc.arrival[ck.index], fmt.Sprintf("batch %d (%s)", r.idx, wc.name))
	}
}

// verify applies the per-check oracles: the verdict equals the reference,
// a check above the sink's topological arrival is N, and a V witness
// replays through sim.Run to settle at or after δ, at the settle time the
// server reported.
func (r *batchRecord) verify(c *circuit.Circuit, sink circuit.NetID, ck checkSeen, ref string, arrival int64, where string) {
	name := c.Net(sink).Name
	if ck.final != ref {
		r.problem(fmt.Sprintf("%s: %s δ=%d verdict %s, reference %s", where, name, ck.delta, ck.final, ref))
		return
	}
	if ck.delta > arrival && ck.final != core.NoViolation.String() {
		r.problem(fmt.Sprintf("%s: %s δ=%d above arrival %d not refuted (%s)", where, name, ck.delta, arrival, ck.final))
		return
	}
	if ck.final == core.ViolationFound.String() {
		vec, err := server.DecodeWitness(ck.witness)
		if err != nil {
			r.problem(fmt.Sprintf("%s: %s δ=%d witness: %v", where, name, ck.delta, err))
			return
		}
		t0 := time.Now()
		res, err := sim.Run(c, vec)
		r.replay += time.Since(t0)
		r.witnesses++
		if err != nil || int64(res.Settle[sink]) < ck.delta || int64(res.Settle[sink]) != ck.settle {
			r.problem(fmt.Sprintf("%s: %s δ=%d witness does not replay to its settle time %d (err %v)",
				where, name, ck.delta, ck.settle, err))
			return
		}
	}
	r.good++
}

func runServeWarm(cfg config) (*outcome, error)   { return runWarm(cfg, 1, false) }
func runClusterWarm(cfg config) (*outcome, error) { return runWarm(cfg, 3, true) }

// runWarm measures the warm read path on one lttad or a coordinator over
// workers.
func runWarm(cfg config, workers int, coordinated bool) (*outcome, error) {
	set, err := warmSet()
	if err != nil {
		return nil, err
	}
	for _, wc := range set {
		wc.reference()
	}

	// Set-up, setupRuns times: start the tiers, upload, warm every batch kind.
	var setups []float64
	var st *stack
	for rep := 0; rep < setupRuns; rep++ {
		t0 := time.Now()
		s, err := startStack(workers, coordinated)
		if err != nil {
			return nil, err
		}
		c := &caller{http: s.client, base: s.base}
		for _, wc := range set {
			var rec batchRecord
			h, err := c.upload(context.Background(), &rec, &api.UploadRequest{Netlist: wc.bench})
			if err != nil {
				s.close()
				return nil, fmt.Errorf("upload %s: %w", wc.name, err)
			}
			wc.hash = h
		}
		if err := warmup(s, len(set), func(c *caller, k int, rec *batchRecord) error {
			return warmBatch(c, set[k], rec, false)
		}); err != nil {
			s.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupRuns-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()

	o := &outcome{metrics: map[string]float64{}}
	kind := func(i int) int { return warmKind(cfg.seed, set, i) }
	run := func(dur time.Duration, traced bool) (*phase, error) {
		return measure(st, dur, traced, cfg.trace, false, func(c *caller, i int, rec *batchRecord) error {
			return warmBatch(c, set[kind(i)], rec, traced)
		}, func(r *batchRecord) { checkWarm(set[kind(r.idx)], r) })
	}
	dur := cfg.seconds
	if cfg.trace {
		dur /= 2
	}
	base, err := run(dur, false)
	if err != nil {
		return nil, err
	}
	good := base.tally(o, st, true)
	e2e := map[string]float64{"setup_s": median(setups), "peak_heap_mb": base.peakMB}
	latencyMetrics(e2e, base.window, good, warmSuiteLen(set), func(i int) string { return set[kind(i)].name })
	if !cfg.trace {
		o.metrics = e2e
		return o, nil
	}

	m := o.metrics
	base.layers(m, st)
	m["sim.replay_us"] = base.replayUs()
	traced, err := run(dur, true)
	if err != nil {
		return nil, err
	}
	tracedGood := traced.tally(o, st, true)
	m["trace.overhead"] = e2e["checks_per_s"] / (float64(tracedGood) / traced.elapsed.Seconds())
	if coordinated {
		m["coord.overhead_ms"] = coordOverhead(traced)
	}
	rec := newSpanRecorder()
	traced.spans(rec)
	var rc []replayCircuit
	for _, wc := range set {
		var ds []waveform.Time
		for _, d := range wc.deltas {
			ds = append(ds, waveform.Time(d))
		}
		rc = append(rc, replayCircuit{name: wc.name, c: wc.c, bench: wc.bench,
			sinks: wc.c.PrimaryOutputs(), deltas: ds})
	}
	replayLayers(m, rec, rc, 10)
	zeroUnset(m, "harness.", "coord.")
	name := "serve_warm"
	if coordinated {
		name = "cluster_warm"
	}
	return o, writeSpans(rec, cfg, name)
}
