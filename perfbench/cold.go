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
	"repro/internal/verilog"
	"repro/internal/waveform"
)

// Cold netlists: seeded gen.Random circuits of a few hundred gates.
const (
	coldPIs      = 20
	coldGates    = 150
	coldSuiteLen = 8   // batches per suite: 2 Verilog, 4 inline
	registryCap  = 128 // lttad's default registry size, pre-filled in set-up
	coldRefEvery = 16  // batches between in-process reference checks
)

// coldBatch is one write-path batch: a never-seen netlist, its format and
// path, and its checks (both outputs plus two internal nets, each at
// δ = its topological arrival + 1).
type coldBatch struct {
	c       *circuit.Circuit
	verilog bool
	inline  bool
	sinks   []circuit.NetID
	arrival []int64
}

// newColdBatch builds batch i's inputs. Within each suite of eight, two
// batches are Verilog and four are inline, in a seeded order.
func newColdBatch(seed int64, i int) *coldBatch {
	perm := rand.New(rand.NewSource(seed*7919 + int64(i/coldSuiteLen))).Perm(coldSuiteLen)
	k := perm[i%coldSuiteLen]
	return buildColdBatch(seed*1_000_003+int64(i), k >= 6, k%2 == 0)
}

func buildColdBatch(cseed int64, isVerilog, inline bool) *coldBatch {
	c := gen.Random(cseed, coldPIs, coldGates, 10)
	b := &coldBatch{c: c, verilog: isVerilog, inline: inline}
	a := delay.New(c)
	sinks := append([]circuit.NetID(nil), c.PrimaryOutputs()...)
	for _, name := range []string{fmt.Sprintf("g%d", coldGates/2), fmt.Sprintf("g%d", 3*coldGates/4)} {
		if id, ok := c.NetByName(name); ok {
			sinks = append(sinks, id)
		}
	}
	b.sinks = sinks
	for _, s := range sinks {
		b.arrival = append(b.arrival, int64(a.Arrival(s)))
	}
	return b
}

// netlist renders the circuit in the batch's format.
func (b *coldBatch) netlist() string {
	if b.verilog {
		return verilog.String(b.c)
	}
	return circuit.BenchString(b.c)
}

func (b *coldBatch) format() string {
	if b.verilog {
		return "verilog"
	}
	return ""
}

// send runs the batch: inline POST /v1/check, or PUT /v1/circuits then
// one check by hash.
func (b *coldBatch) send(c *caller, rec *batchRecord) error {
	req := &api.Request{}
	for j, s := range b.sinks {
		req.Checks = append(req.Checks, api.CheckSpec{Sink: b.c.Net(s).Name, Delta: b.arrival[j] + 1})
	}
	if c.traced {
		rec.traceID = api.NewTraceID()
		req.Trace = &api.TraceContext{TraceID: rec.traceID}
	}
	ctx := context.Background()
	text := b.netlist()
	rec.sent = time.Now()
	if b.inline {
		req.Netlist, req.Format = text, b.format()
		return c.stream(ctx, rec, "/v1/check", req)
	}
	h, err := c.upload(ctx, rec, &api.UploadRequest{Netlist: text, Format: b.format()})
	if err != nil {
		return err
	}
	return c.stream(ctx, rec, "/v1/circuits/"+string(h)+"/check", req)
}

// checkCold regenerates the batch's circuit and applies the oracles:
// every check is above its sink's arrival, so it must be N; on every
// coldRefEvery-th batch it must also equal the serial in-process
// engine's verdict (a core.Prepare per batch would make the check pass
// longer than the run). It runs after the timed window.
func checkCold(seed int64, r *batchRecord) {
	defer func() { r.checks = nil }()
	if r.err != "" {
		return
	}
	b := newColdBatch(seed, r.idx)
	want := len(b.sinks)
	if len(r.checks) != want || r.doneChecks != want {
		r.problem(fmt.Sprintf("batch %d: %d check events, done.checksRun %d, want %d", r.idx, len(r.checks), r.doneChecks, want))
		return
	}
	var v *core.Verifier
	if r.idx%coldRefEvery == 0 {
		v = core.Prepare(b.c).NewVerifier(core.Default())
	}
	seen := make([]bool, want)
	for _, ck := range r.checks {
		if ck.index < 0 || ck.index >= want || seen[ck.index] {
			r.problem(fmt.Sprintf("batch %d: unexpected or duplicate check %d", r.idx, ck.index))
			return
		}
		seen[ck.index] = true
		s := b.sinks[ck.index]
		ref := core.NoViolation.String()
		if v != nil {
			ref = v.Run(context.Background(), core.Request{Sink: s, Delta: waveform.Time(b.arrival[ck.index] + 1)}).Final.String()
		}
		r.verify(b.c, s, ck, ref, b.arrival[ck.index], fmt.Sprintf("batch %d", r.idx))
	}
}

// checkAll checks every batch of a window after it closed.
func checkAll(seed int64, p *phase) {
	for i := range p.kept {
		checkCold(seed, &p.kept[i])
		p.tot.addOutcome(&p.kept[i])
	}
}

// runServeCold measures the write path on one lttad whose registry is
// full before timing starts, so every upload evicts.
func runServeCold(cfg config) (*outcome, error) {
	// Set-up, setupRuns times: start lttad, fill its registry with
	// never-checked circuits, and run one batch of each kind.
	var setups []float64
	var st *stack
	for rep := 0; rep < setupRuns; rep++ {
		t0 := time.Now()
		s, err := startStack(1, false)
		if err != nil {
			return nil, err
		}
		c := &caller{http: s.client, base: s.base}
		for j := 0; j < registryCap; j++ {
			b := buildColdBatch(-(cfg.seed*1_000_003 + int64(j) + 1), false, false)
			var rec batchRecord
			if _, err := c.upload(context.Background(), &rec, &api.UploadRequest{Netlist: b.netlist()}); err != nil {
				s.close()
				return nil, fmt.Errorf("registry fill: %w", err)
			}
		}
		if err := warmup(s, coldSuiteLen, func(c *caller, k int, rec *batchRecord) error {
			return buildColdBatch(-(cfg.seed*1_000_003+int64(registryCap+k+rep*coldSuiteLen)+1), k >= 6, k%2 == 0).send(c, rec)
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
	run := func(dur time.Duration, traced bool) (*phase, error) {
		return measure(st, dur, traced, cfg.trace, true, func(c *caller, i int, rec *batchRecord) error {
			return newColdBatch(cfg.seed, i).send(c, rec)
		}, nil)
	}
	dur := cfg.seconds
	if cfg.trace {
		dur /= 2
	}
	base, err := run(dur, false)
	if err != nil {
		return nil, err
	}
	checkAll(cfg.seed, base)
	good := base.tally(o, st, false)
	e2e := map[string]float64{"setup_s": median(setups), "peak_heap_mb": base.peakMB}
	latencyMetrics(e2e, base.window, good, coldSuiteLen, func(int) string { return "" })
	if !cfg.trace {
		o.metrics = e2e
		return o, nil
	}

	m := o.metrics
	base.layers(m, st)
	traced, err := run(dur, true)
	if err != nil {
		return nil, err
	}
	checkAll(cfg.seed, traced)
	tracedGood := traced.tally(o, st, false)
	m["trace.overhead"] = e2e["checks_per_s"] / (float64(tracedGood) / traced.elapsed.Seconds())
	rec := newSpanRecorder()
	traced.spans(rec)
	var rc []replayCircuit
	for i := 0; i < 16; i++ {
		b := newColdBatch(cfg.seed, i)
		// The served batch gives each sink its own δ; the replay uses the
		// circuit-level δ above every arrival.
		rc = append(rc, replayCircuit{name: fmt.Sprintf("cold %d", i), c: b.c, bench: circuit.BenchString(b.c),
			sinks: b.sinks, deltas: []waveform.Time{delay.New(b.c).Topological().Add(1)}})
	}
	replayLayers(m, rec, rc, 10)
	zeroUnset(m, "harness.", "coord.")
	return o, writeSpans(rec, cfg, "serve_cold")
}
