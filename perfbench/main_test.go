package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/waveform"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

func bound(t *testing.T, bf *benchmarkFile, name string) float64 {
	t.Helper()
	for _, m := range bf.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return 0
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	bf := loadBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s does not match %s", unit, name, unitRE)
		}
	}
	for _, w := range bf.Workloads {
		check(w.Name, "")
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit)
	}
}

// TestRosterMatchesCommand pins BENCHMARK.json to what the command
// prints: the workloads it accepts and the metric rosters buildResult
// enforces on every result line.
func TestRosterMatchesCommand(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(bf.EndToEnd), len(e2eMetrics))
	}
	largest := 0.0
	for i, m := range bf.EndToEnd {
		if m.Name != e2eMetrics[i].Name || m.Unit != e2eMetrics[i].Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], command %s [%s]", i, m.Name, m.Unit, e2eMetrics[i].Name, e2eMetrics[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	if b := bound(t, bf, "setup_s"); b != largest {
		t.Errorf("setup_s bound %v is not the largest (%v)", b, largest)
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layerMetrics[i].Name || m.Unit != layerMetrics[i].Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], command %s [%s]", i, m.Name, m.Unit, layerMetrics[i].Name, layerMetrics[i].Unit)
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestBuildResultEnforcesRoster: a result line carries exactly the
// roster, with units, or the run fails.
func TestBuildResultEnforcesRoster(t *testing.T) {
	full := map[string]float64{}
	for _, m := range e2eMetrics {
		full[m.Name] = 1
	}
	res, err := buildResult(&outcome{attempted: 3, metrics: full}, e2eMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(e2eMetrics) || res.Metrics["checks_per_s"].Unit != "1/s" {
		t.Errorf("unexpected result %+v", res)
	}
	missing := map[string]float64{"setup_s": 1}
	if _, err := buildResult(&outcome{attempted: 1, metrics: missing}, e2eMetrics); err == nil {
		t.Error("a missing metric was accepted")
	}
	full["extra"] = 1
	if _, err := buildResult(&outcome{attempted: 1, metrics: full}, e2eMetrics); err == nil {
		t.Error("a metric outside the roster was accepted")
	}
	delete(full, "extra")
	if res, _ := buildResult(&outcome{attempted: 4, failed: 1, metrics: full}, e2eMetrics); res.Correct {
		t.Error("a run with a failure reported correct")
	}
}

// TestPercentileRule: p99 needs ten samples beyond it; with fewer
// samples the highest quantile that has ten beyond it is reported.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {500, 0.98}, {100, 0.9}, {22, 1 - 10.0/22}, {15, 0.5}, {3, 0.5}} {
		if got := tailQuantile(tc.n, 0.99); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	q := tailQuantile(len(xs), 0.99)
	v := quantile(xs, q)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if m := quantile(xs, 0.5); m != 500 {
		t.Errorf("p50 of 1..1000 = %v", m)
	}
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean = %v", g)
	}
}

// slowTracer busy-waits share × the stage's own time at the end of each
// chosen stage: an injected slowdown of that part of the engine.
type slowTracer struct {
	share  float64
	stages map[core.Stage]bool
}

func (s slowTracer) CheckStart(circuit.NetID, waveform.Time) {}
func (s slowTracer) StageEnter(core.Stage)                   {}
func (s slowTracer) StageExit(st core.Stage, _ core.Result, elapsed time.Duration) {
	if s.stages[st] {
		end := time.Now().Add(time.Duration(s.share * float64(elapsed)))
		for time.Now().Before(end) {
		}
	}
}
func (s slowTracer) DominatorRound(int, int, bool)    {}
func (s slowTracer) Decision(int, circuit.NetID, int) {}
func (s slowTracer) Backtrack(int)                    {}
func (s slowTracer) StemSplit(int, circuit.NetID)     {}
func (s slowTracer) CheckDone(*core.Report)           {}

// geomeanMoves measures circuit_geomean_ms under each configuration the
// way runTable1 does — the geometric mean over circuits of the median
// row-pair time — and returns each configuration's ratio to the first.
// Configurations alternate circuit by circuit (three rounds over the ten
// fast circuits, one over c6288), so a drift in machine speed during the
// test hits them alike.
func geomeanMoves(suite []gen.SuiteEntry, configs ...harness.RowOption) []float64 {
	times := make([]map[string][]float64, len(configs))
	for k := range times {
		times[k] = map[string][]float64{}
	}
	for round := 0; round < 3; round++ {
		for i, e := range suite {
			if e.Name == "c6288" && round > 0 {
				continue
			}
			for k, opt := range configs {
				_, ts, _ := table1Pass(suite, []int{i}, opt)
				times[k][e.Name] = append(times[k][e.Name], ms(ts[e.Name]))
			}
		}
	}
	moves := make([]float64, len(configs))
	for k := range configs {
		var ratios []float64
		for _, name := range tableCircuits {
			ratios = append(ratios, median(times[k][name])/median(times[0][name]))
		}
		moves[k] = geomean(ratios) - 1
	}
	return moves
}

// TestInjectedSlowdownFlagged: a 100% slowdown of every engine stage,
// injected from outside the program through harness.WithTracer, moves
// table1's circuit_geomean_ms beyond its bound. Smaller injections are
// measured and logged, not asserted: 20% in the stage-1 fixpoint alone
// (about 1% of a row's time) and 20% in every stage both move the metric
// by less than the run-to-run spread of a shared two-processor machine,
// which the bound has to cover (README.md, "Sensitivity").
func TestInjectedSlowdownFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table-1 suite three times over")
	}
	b := bound(t, loadBenchmarkFile(t), "circuit_geomean_ms")
	all := map[core.Stage]bool{core.StagePlain: true, core.StageGITD: true, core.StageStem: true, core.StageCase: true}
	moves := geomeanMoves(gen.SubstituteSuite(),
		harness.WithTracer(slowTracer{stages: map[core.Stage]bool{}}),
		harness.WithTracer(slowTracer{share: 0.2, stages: map[core.Stage]bool{core.StagePlain: true}}),
		harness.WithTracer(slowTracer{share: 0.2, stages: all}),
		harness.WithTracer(slowTracer{share: 1, stages: all}))
	t.Logf("circuit_geomean_ms moves: stage-1 fixpoint +20%% → %+.2f%%, every stage +20%% → %+.2f%%, every stage +100%% → %+.2f%% (bound %.0f%%)",
		100*moves[1], 100*moves[2], 100*moves[3], 100*b)
	if moves[3] <= b {
		t.Errorf("a 100%% engine-stage slowdown moved circuit_geomean_ms by %.2f%%, not beyond its %.0f%% bound",
			100*moves[3], 100*b)
	}
}
