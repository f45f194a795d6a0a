package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/waveform"
)

// Table-1 case-analysis budgets, as in the root Table-1 Go benchmarks:
// c6288 runs with a reduced budget so a suite pass stays tractable.
const (
	table1Budget = 200000
	c6288Budget  = 500
)

func rowBudget(name string) int {
	if name == "c6288" {
		return c6288Budget
	}
	return table1Budget
}

// expectedRow holds the compared columns of one Table-1 row.
type expectedRow struct {
	Circuit    string `json:"circuit"`
	Delta      int64  `json:"delta"`
	Exact      bool   `json:"exact"`
	Upper      bool   `json:"upperBound"`
	BeforeGITD string `json:"beforeGITD"`
	AfterGITD  string `json:"afterGITD"`
	AfterStem  string `json:"afterStem"`
	CAResult   string `json:"caseAnalysis"`
}

// expectedTable1 is the committed oracle: the rows of every suite circuit
// and the number of engine checks each circuit's row pair runs (which
// turns suite passes into checks per second).
type expectedTable1 struct {
	Rows   []expectedRow  `json:"rows"`
	Checks map[string]int `json:"checks"`
}

//go:embed table1_expected.json
var expectedTable1JSON []byte

func loadExpected() (*expectedTable1, error) {
	var e expectedTable1
	if err := json.Unmarshal(expectedTable1JSON, &e); err != nil {
		return nil, fmt.Errorf("table1_expected.json: %w", err)
	}
	return &e, nil
}

func toExpected(r harness.Table1Row) expectedRow {
	return expectedRow{Circuit: r.Circuit, Delta: int64(r.Delta), Exact: r.Exact, Upper: r.Upper,
		BeforeGITD: r.BeforeGITD.String(), AfterGITD: r.AfterGITD.String(),
		AfterStem: r.AfterStem.String(), CAResult: r.CAResult.String()}
}

// writeExpectedRows regenerates the oracle file from the current engine.
func writeExpectedRows(path string) error {
	e := expectedTable1{Checks: map[string]int{}}
	for _, sc := range gen.SubstituteSuite() {
		count := &engineAgg{}
		rows := harness.CircuitRowsParallel(sc.Name, sc.Circuit, rowBudget(sc.Name), 1,
			harness.WithTracer(&spanTracer{rec: newSpanRecorder(), agg: count}))
		for _, r := range rows {
			e.Rows = append(e.Rows, toExpected(r))
		}
		e.Checks[sc.Name] = count.checks
		logf("%s: %d checks", sc.Name, count.checks)
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareRows checks one circuit's rows against the oracle.
func compareRows(o *outcome, exp map[string][]expectedRow, name string, rows []harness.Table1Row) {
	want := exp[name]
	if len(rows) != len(want) {
		o.fail("table1 %s: %d rows, want %d", name, len(rows), len(want))
		return
	}
	for i, r := range rows {
		if got := toExpected(r); got != want[i] {
			o.fail("table1 %s row %d: got %+v, want %+v", name, i, got, want[i])
			return
		}
	}
}

// table1Pass times one pass over the suite in the given order; rows and
// per-circuit row-pair times are returned per circuit.
func table1Pass(suite []gen.SuiteEntry, order []int, opts ...harness.RowOption) (time.Duration, map[string]time.Duration, map[string][]harness.Table1Row) {
	times := map[string]time.Duration{}
	rows := map[string][]harness.Table1Row{}
	start := time.Now()
	for _, i := range order {
		e := suite[i]
		t0 := time.Now()
		// Without options this is harness.CircuitRows.
		rows[e.Name] = harness.CircuitRowsParallel(e.Name, e.Circuit, rowBudget(e.Name), 1, opts...)
		times[e.Name] = time.Since(t0)
	}
	return time.Since(start), times, rows
}

// runTable1 measures Table-1 row pairs circuit by circuit; the seed only
// permutes the circuit order, since Table 1 is a fixed suite.
func runTable1(cfg config) (*outcome, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	expRows := map[string][]expectedRow{}
	for _, r := range exp.Rows {
		expRows[r.Circuit] = append(expRows[r.Circuit], r)
	}

	// Set-up: what a user pays before the first row — generating the
	// suite. Repeated, median reported.
	var setups []float64
	var suite []gen.SuiteEntry
	for i := 0; i < 3*setupRuns; i++ {
		t0 := time.Now()
		suite = gen.SubstituteSuite()
		setups = append(setups, time.Since(t0).Seconds())
	}
	if len(suite) != len(tableCircuits) {
		return nil, fmt.Errorf("suite has %d circuits, want %d", len(suite), len(tableCircuits))
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(suite))

	o := &outcome{metrics: map[string]float64{}}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2 // untraced half, then the traced half
	}

	// The measured window: full passes while the next is expected to end
	// in time, then passes over every circuit but c6288 to fill the
	// window, so the fast circuits' medians rest on more samples.
	var fast []int
	for _, i := range order {
		if suite[i].Name != "c6288" {
			fast = append(fast, i)
		}
	}
	type circuitRows struct {
		name string
		rows []harness.Table1Row
	}
	var got []circuitRows
	rowTimes := map[string][]float64{}
	checks, full, fill := 0, 0, 0
	var busy time.Duration
	pass := func(idx []int) time.Duration {
		d, times, rows := table1Pass(suite, idx)
		busy += d
		for name, t := range times {
			rowTimes[name] = append(rowTimes[name], ms(t))
			checks += exp.Checks[name]
			got = append(got, circuitRows{name, rows[name]})
		}
		return d
	}
	rt0 := readRuntime()
	heap := startHeapSampler()
	start := time.Now()
	for {
		full++
		if d := pass(order); time.Since(start)+d > budget {
			break
		}
	}
	for {
		var est float64
		for _, i := range fast {
			ts := rowTimes[suite[i].Name]
			est += ts[len(ts)-1]
		}
		if time.Since(start)+time.Duration(est*float64(time.Millisecond)) > budget {
			break
		}
		fill++
		pass(fast)
	}
	peak := heap.stopMB()
	rt1 := readRuntime()
	for _, cr := range got {
		o.attempted += 2
		compareRows(o, expRows, cr.name, cr.rows)
	}
	logf("table1 full passes=%d fill passes=%d busy=%.2fs", full, fill, busy.Seconds())

	if !cfg.trace {
		var perCircuit []float64
		var suiteMs float64
		checksPerPass := 0
		for _, name := range tableCircuits {
			med := median(rowTimes[name])
			perCircuit = append(perCircuit, med)
			suiteMs += med
			checksPerPass += exp.Checks[name]
		}
		// A pass is one row-pair batch per circuit, and how many passes fit
		// depends on the machine's speed, so the batch percentiles are taken
		// over the per-circuit medians; with 11 of them the tail rule leaves
		// the median.
		q := tailQuantile(len(perCircuit), 0.99)
		m := o.metrics
		m["setup_s"] = median(setups)
		m["suite_s"] = suiteMs / 1000
		m["circuit_geomean_ms"] = geomean(perCircuit)
		m["checks_per_s"] = float64(checksPerPass) / (suiteMs / 1000)
		m["batch_p50_ms"] = quantile(perCircuit, 0.5)
		m["batch_p99_ms"] = quantile(perCircuit, q)
		m["peak_heap_mb"] = peak
		return o, nil
	}

	// Traced half: one pass with a span tracer on every check.
	m := o.metrics
	var untraced float64
	for _, name := range tableCircuits {
		m["harness.row_ms."+name] = median(rowTimes[name])
		untraced += median(rowTimes[name]) / 1000
	}
	runtimeLayer(m, rt0, rt1, checks)

	rec := newSpanRecorder()
	rec.nameLane(1, "table1 rows")
	agg := &engineAgg{}
	tr := &spanTracer{rec: rec, lane: 1, agg: agg}
	var tracedTotal time.Duration
	tracedRows := map[string][]harness.Table1Row{}
	for _, i := range order {
		e := suite[i]
		t0 := time.Now()
		tr.parent = rec.open("harness.row_pair", 1, 0)
		tracedRows[e.Name] = harness.CircuitRowsParallel(e.Name, e.Circuit, rowBudget(e.Name), 1, harness.WithTracer(tr))
		rec.close(tr.parent)
		tracedTotal += time.Since(t0)
	}
	for _, e := range suite {
		o.attempted += 2
		compareRows(o, expRows, e.Name, tracedRows[e.Name])
	}
	agg.report(m)
	m["trace.overhead"] = tracedTotal.Seconds() / untraced

	// Replay every circuit but c6288 (whose case analysis alone is a
	// suite pass) through the parse, hash, prepare, cone and check layers
	// on the row-pair schedule δ = D, D+1.
	var rc []replayCircuit
	for _, e := range suite {
		if e.Name == "c6288" {
			continue
		}
		d := expRows[e.Name][1].Delta
		rc = append(rc, replayCircuit{name: e.Name, c: e.Circuit, bench: circuit.BenchString(e.Circuit),
			sinks: e.Circuit.PrimaryOutputs(), deltas: []waveform.Time{waveform.Time(d), waveform.Time(d + 1)}})
	}
	replayLayers(m, rec, rc, 2)
	zeroUnset(m, "api.", "server.", "registry.", "coord.")
	if err := writeSpans(rec, cfg, "table1"); err != nil {
		return nil, err
	}
	return o, nil
}
