package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/waveform"
)

// Tracer is the histogram-backed core.Tracer: it turns the pipeline's
// callbacks into latency and work distributions, whose sums double as
// the flat totals (TracerSnapshot.Totals). Every callback is either a
// no-op, an atomic add, or one histogram Observe, so a single Tracer shared
// across all workers of a parallel RunAll never serialises them; the
// distributions are built entirely from the per-callback arguments
// and the finished Report, which need no cross-callback state.
type Tracer struct {
	// StageSeconds holds per-stage wall time in nanoseconds, indexed
	// by core.Stage (observed at StageExit).
	StageSeconds [core.NumStages]*Histogram
	// CheckSeconds is end-to-end check latency in nanoseconds.
	CheckSeconds *Histogram
	// Propagations, Backtracks, and QueueHighWater are per-check work
	// distributions (observed at CheckDone).
	Propagations   *Histogram
	Backtracks     *Histogram
	QueueHighWater *Histogram

	checks    [resultKinds]atomic.Int64
	decisions atomic.Int64
	stemSpl   atomic.Int64
	domRounds atomic.Int64
	narrow    atomic.Int64
}

// resultKinds covers core.Result's values (P, N, V, A, -, C).
const resultKinds = 6

var (
	// durationBuckets span 1µs..100s at five buckets per decade: the
	// fastest c17 cone check sits near the bottom, a c6288 case
	// analysis near the top.
	durationBuckets = ExpBuckets(1_000, 100_000_000_000, 5)
	// workBuckets span 1..10⁸ propagations/backtracks per check.
	workBuckets = ExpBuckets(1, 100_000_000, 5)
	// queueBuckets span the fixpoint worklist high-water mark.
	queueBuckets = ExpBuckets(1, 1_000_000, 5)
)

var _ core.Tracer = (*Tracer)(nil)

// NewTracer returns a Tracer with the standard bucket layouts.
func NewTracer() *Tracer {
	t := &Tracer{
		CheckSeconds:   NewHistogram(durationBuckets),
		Propagations:   NewHistogram(workBuckets),
		Backtracks:     NewHistogram(workBuckets),
		QueueHighWater: NewHistogram(queueBuckets),
	}
	for st := range t.StageSeconds {
		t.StageSeconds[st] = NewHistogram(durationBuckets)
	}
	return t
}

func (t *Tracer) CheckStart(circuit.NetID, waveform.Time) {}
func (t *Tracer) StageEnter(core.Stage)                   {}

func (t *Tracer) StageExit(stage core.Stage, _ core.Result, elapsed time.Duration) {
	t.StageSeconds[stage].ObserveDuration(elapsed.Nanoseconds())
}

func (t *Tracer) DominatorRound(_, _ int, narrowed bool) {
	if narrowed {
		t.domRounds.Add(1)
	}
}

func (t *Tracer) Decision(int, circuit.NetID, int) { t.decisions.Add(1) }
func (t *Tracer) Backtrack(int)                    {}
func (t *Tracer) StemSplit(int, circuit.NetID)     {}

func (t *Tracer) CheckDone(rep *core.Report) {
	if f := int(rep.Final); f >= 0 && f < resultKinds {
		t.checks[f].Add(1)
	}
	t.CheckSeconds.ObserveDuration(rep.Elapsed.Nanoseconds())
	t.Propagations.Observe(rep.Propagations)
	if rep.Backtracks >= 0 {
		t.Backtracks.Observe(int64(rep.Backtracks))
	}
	t.QueueHighWater.Observe(int64(rep.Stats.QueueHighWater))
	t.stemSpl.Add(int64(rep.Stats.StemSplits))
	t.narrow.Add(rep.Stats.Narrowings)
}

// Checks returns the number of finished checks observed so far.
func (t *Tracer) Checks() int64 {
	var n int64
	for i := range t.checks {
		n += t.checks[i].Load()
	}
	return n
}

// Snapshot captures every distribution and counter, mergeable with
// snapshots of other Tracers (shard-per-worker aggregation).
func (t *Tracer) Snapshot() TracerSnapshot {
	s := TracerSnapshot{
		CheckSeconds:   t.CheckSeconds.Snapshot(),
		Propagations:   t.Propagations.Snapshot(),
		Backtracks:     t.Backtracks.Snapshot(),
		QueueHighWater: t.QueueHighWater.Snapshot(),
		Decisions:      t.decisions.Load(),
		StemSplits:     t.stemSpl.Load(),
		DominatorRds:   t.domRounds.Load(),
		Narrowings:     t.narrow.Load(),
	}
	for st := range t.StageSeconds {
		s.StageSeconds[st] = t.StageSeconds[st].Snapshot()
	}
	for i := range t.checks {
		s.Checks[i] = t.checks[i].Load()
	}
	return s
}

// TracerSnapshot is a mergeable point-in-time copy of a Tracer.
type TracerSnapshot struct {
	StageSeconds   [core.NumStages]HistSnapshot
	CheckSeconds   HistSnapshot
	Propagations   HistSnapshot
	Backtracks     HistSnapshot
	QueueHighWater HistSnapshot

	Checks       [resultKinds]int64
	Decisions    int64
	StemSplits   int64
	DominatorRds int64
	Narrowings   int64
}

// Totals renders the snapshot's flat sums on one line: checks by
// final verdict, summed work counters, the queue high-water mark as
// its histogram bucket bound, and check time in total and per stage.
// It is the -stats line of ltta and table1 and lttad's checksSummary.
func (s *TracerSnapshot) Totals() string {
	out := fmt.Sprintf(
		"checks %d (N %d, V %d, A %d, C %d, P %d); propagations %d, narrowings %d, backtracks %d, decisions %d, dominator rounds %d, stem splits %d; queue high-water ≤%d; cpu %.3fs",
		s.TotalChecks(), s.Checks[core.NoViolation], s.Checks[core.ViolationFound],
		s.Checks[core.Abandoned], s.Checks[core.Cancelled], s.Checks[core.PossibleViolation],
		s.Propagations.Sum, s.Narrowings, s.Backtracks.Sum, s.Decisions,
		s.DominatorRds, s.StemSplits, s.QueueHighWater.Quantile(1),
		time.Duration(s.CheckSeconds.Sum).Seconds())
	for st := core.Stage(0); st < core.NumStages; st++ {
		if d := s.StageSeconds[st].Sum; d > 0 {
			out += fmt.Sprintf("; %s %.3fs", st, time.Duration(d).Seconds())
		}
	}
	return out
}

// TotalChecks sums the per-verdict check counters.
func (s *TracerSnapshot) TotalChecks() int64 {
	var n int64
	for _, c := range s.Checks {
		n += c
	}
	return n
}

// Merge adds o into s; the histograms must share bucket layouts
// (always true for NewTracer-built tracers).
func (s *TracerSnapshot) Merge(o TracerSnapshot) error {
	for st := range s.StageSeconds {
		if err := s.StageSeconds[st].Merge(o.StageSeconds[st]); err != nil {
			return err
		}
	}
	if err := s.CheckSeconds.Merge(o.CheckSeconds); err != nil {
		return err
	}
	if err := s.Propagations.Merge(o.Propagations); err != nil {
		return err
	}
	if err := s.Backtracks.Merge(o.Backtracks); err != nil {
		return err
	}
	if err := s.QueueHighWater.Merge(o.QueueHighWater); err != nil {
		return err
	}
	for i := range s.Checks {
		s.Checks[i] += o.Checks[i]
	}
	s.Decisions += o.Decisions
	s.StemSplits += o.StemSplits
	s.DominatorRds += o.DominatorRds
	s.Narrowings += o.Narrowings
	return nil
}

// verdictLabels maps core.Result values onto stable label strings
// (the paper's letters are cryptic in a metrics browser).
var verdictLabels = [resultKinds]string{
	core.PossibleViolation: "possible",
	core.NoViolation:       "no_violation",
	core.ViolationFound:    "violation",
	core.Abandoned:         "abandoned",
	core.StageSkipped:      "skipped",
	core.Cancelled:         "cancelled",
}

// MustRegister wires the tracer's distributions and counters into a
// Registry under the given namespace (conventionally "ltta"):
// per-verdict check counters, one latency histogram per pipeline
// stage (labelled by stage name), end-to-end check latency, and the
// per-check work distributions.
func (t *Tracer) MustRegister(reg *Registry, ns string) {
	for i := 0; i < resultKinds; i++ {
		if core.Result(i) == core.StageSkipped {
			continue // never a final verdict
		}
		i := i
		reg.CounterFunc(ns+"_checks_total", "Finished timing checks by final verdict.",
			Labels{"verdict": verdictLabels[i]}, t.checks[i].Load)
	}
	for st := core.Stage(0); st < core.NumStages; st++ {
		reg.Histogram(ns+"_stage_duration_seconds",
			"Wall-clock time per pipeline stage run (paper Table-1 columns).",
			Labels{"stage": st.String()}, t.StageSeconds[st], 1e-9)
	}
	reg.Histogram(ns+"_check_duration_seconds",
		"End-to-end wall-clock latency per timing check.", nil, t.CheckSeconds, 1e-9)
	reg.Histogram(ns+"_check_propagations",
		"Gate-constraint applications per check (narrowing cost).", nil, t.Propagations, 1)
	reg.Histogram(ns+"_check_backtracks",
		"Case-analysis backtracks per check that reached case analysis.", nil, t.Backtracks, 1)
	reg.Histogram(ns+"_check_queue_highwater",
		"Fixpoint worklist peak length per check.", nil, t.QueueHighWater, 1)
	reg.CounterFunc(ns+"_decisions_total", "Case-analysis decisions.", nil, t.decisions.Load)
	reg.CounterFunc(ns+"_stem_splits_total", "Stems correlated by stem correlation.", nil,
		func() int64 { return t.stemSpl.Load() })
	reg.CounterFunc(ns+"_dominator_rounds_total", "Evaluate-loop rounds that narrowed a dominator.", nil,
		func() int64 { return t.domRounds.Load() })
	reg.CounterFunc(ns+"_narrowings_total", "Domain narrowings across all stages.", nil,
		func() int64 { return t.narrow.Load() })
}

// WriteSummary renders a human-readable percentile summary of the
// tracer's distributions — the `table1 -hist` / `ltta -hist` companion
// to the flat sums of TracerSnapshot.Totals.
func (t *Tracer) WriteSummary(w io.Writer) {
	s := t.Snapshot()
	fmt.Fprintf(w, "latency/work distributions over %d checks:\n", s.TotalChecks())
	row := func(name string, h HistSnapshot, dur bool) {
		if h.Count == 0 {
			return
		}
		if dur {
			fmt.Fprintf(w, "  %-22s n=%-8d p50 %-10s p90 %-10s p99 %-10s max<=%s\n",
				name, h.Count,
				time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.90)),
				time.Duration(h.Quantile(0.99)), time.Duration(h.Quantile(1)))
			return
		}
		fmt.Fprintf(w, "  %-22s n=%-8d p50 %-10d p90 %-10d p99 %-10d max<=%d\n",
			name, h.Count, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(1))
	}
	for st := core.Stage(0); st < core.NumStages; st++ {
		row("stage "+st.String(), s.StageSeconds[st], true)
	}
	row("check latency", s.CheckSeconds, true)
	row("propagations/check", s.Propagations, false)
	row("backtracks/check", s.Backtracks, false)
	row("queue high-water", s.QueueHighWater, false)
}
