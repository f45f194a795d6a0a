package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// span is one timed call at a layer boundary. Spans of one batch or one
// replayed circuit share a lane (rendered as a thread) and nest through
// parent ids; the recorder keeps them in memory until the run ends.
type span struct {
	id, parent int
	name       string
	lane       int
	start, end time.Time
}

// spanRecorder collects spans from any goroutine.
type spanRecorder struct {
	mu    sync.Mutex
	spans []span
	lanes map[int]string
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{lanes: map[int]string{}}
}

// add records a completed span and returns its id (ids start at 1; parent
// 0 means a root span). Times are kept as wall-clock readings so spans
// rebuilt from the wire's Unix timestamps order consistently with the
// client's own.
func (r *spanRecorder) add(name string, lane, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, lane: lane,
		start: start.Round(0), end: end.Round(0)})
	return id
}

// open starts a span whose end is set later with close.
func (r *spanRecorder) open(name string, lane, parent int) int {
	now := time.Now()
	return r.add(name, lane, parent, now, now)
}

func (r *spanRecorder) close(id int) {
	now := time.Now().Round(0)
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// nameLane labels a lane in the written trace.
func (r *spanRecorder) nameLane(lane int, label string) {
	r.mu.Lock()
	r.lanes[lane] = label
	r.mu.Unlock()
}

// layerTime is one layer's accumulated span time.
type layerTime struct {
	name  string
	calls int
	total time.Duration
	self  time.Duration
}

// selfTimes returns per-layer totals, where a span's self time is its
// duration minus the part of it its child spans cover.
func (r *spanRecorder) selfTimes() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range r.spans {
		lt := agg[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			agg[s.name] = lt
		}
		dur := s.end.Sub(s.start)
		lt.calls++
		lt.total += dur
		lt.self += dur - covered(s, children[s.id])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	var curS, curE time.Time
	for i, k := range kids {
		s, e := k.start, k.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if !e.After(s) {
			continue
		}
		if i == 0 || curE.IsZero() || s.After(curE) {
			if !curE.IsZero() {
				total += curE.Sub(curS)
			}
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	if !curE.IsZero() {
		total += curE.Sub(curS)
	}
	return total
}

// write stores the spans as Chrome trace_event JSON (complete "X" events,
// one thread per lane) and checks the file with obs.ValidateTrace.
func (r *spanRecorder) write(path string) (int, error) {
	r.mu.Lock()
	events := make([]obs.TraceEvent, 0, len(r.spans)+len(r.lanes))
	for lane, label := range r.lanes {
		events = append(events, obs.TraceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": label}})
	}
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.start.Before(origin) {
			origin = s.start
		}
	}
	// Parents before children at equal start, so viewers nest them.
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].start.Equal(spans[j].start) {
			return spans[i].start.Before(spans[j].start)
		}
		return spans[i].end.After(spans[j].end)
	})
	for _, s := range spans {
		events = append(events, obs.TraceEvent{Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts: us(s.start.Sub(origin)), Dur: us(s.end.Sub(s.start))})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	rf, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer rf.Close()
	n, err := obs.ValidateTrace(rf)
	if err != nil {
		return 0, fmt.Errorf("span file %s: %w", path, err)
	}
	return n, nil
}

// stageLayer names the layer a pipeline stage belongs to.
var stageLayer = [core.NumStages]string{"constraint.fixpoint", "dom.gitd", "core.stems", "core.casean"}

// engineAgg accumulates engine-layer counters per finished check, fed
// either by a benchmark-side core.Tracer or by served wire results.
type engineAgg struct {
	checks    int
	stageUs   [core.NumStages]float64
	stageRuns [core.NumStages]int
	props     float64
	narrow    float64
	qhw       float64
	doms      float64
	rounds    float64
	splits    float64
	backtrack float64
	decisions float64
	abandoned int
}

func (a *engineAgg) addReport(rep *core.Report) {
	var stage [core.NumStages]int64
	for st, d := range rep.Stats.StageTime {
		stage[st] = d.Nanoseconds()
	}
	a.add(stage[:], 1000, rep.Propagations, rep.Stats.Narrowings, rep.Stats.QueueHighWater,
		rep.Dominators, rep.DominatorRounds, rep.Stats.StemSplits, rep.Backtracks, rep.Stats.Decisions,
		rep.Final == core.Abandoned)
}

func (a *engineAgg) addWire(r *api.CheckResult) {
	a.add(r.StageUs, 1, r.Propagations, r.Narrowings, r.QueueHighWater, r.Dominators,
		r.DominatorRounds, r.StemSplits, r.Backtracks, r.Decisions, r.Final == core.Abandoned.String())
}

// add folds one check in; stage holds per-stage times in units of perUs
// per microsecond.
func (a *engineAgg) add(stage []int64, perUs float64, props, narrow int64, qhw, doms, rounds, splits, backtracks int, decisions int64, abandoned bool) {
	a.checks++
	for st, t := range stage {
		if t > 0 && st < core.NumStages {
			a.stageUs[st] += float64(t) / perUs
			a.stageRuns[st]++
		}
	}
	a.props += float64(props)
	a.narrow += float64(narrow)
	a.qhw += float64(qhw)
	a.doms += float64(doms)
	a.rounds += float64(rounds)
	a.splits += float64(splits)
	if backtracks > 0 {
		a.backtrack += float64(backtracks)
	}
	a.decisions += float64(decisions)
	if abandoned {
		a.abandoned++
	}
}

// report writes the engine-layer metrics: stage times per check that ran
// the stage, counters per check, abandoned checks as a count.
func (a *engineAgg) report(m map[string]float64) {
	n := float64(max(a.checks, 1))
	stageMean := func(st core.Stage) float64 {
		if a.stageRuns[st] == 0 {
			return 0
		}
		return a.stageUs[st] / float64(a.stageRuns[st])
	}
	m["constraint.fixpoint_us"] = stageMean(core.StagePlain)
	m["constraint.propagations_per_check"] = a.props / n
	m["constraint.narrowings_per_check"] = a.narrow / n
	m["constraint.queue_high_water"] = a.qhw / n
	m["dom.gitd_us"] = stageMean(core.StageGITD)
	m["dom.dominators_per_check"] = a.doms / n
	m["dom.rounds_per_check"] = a.rounds / n
	m["core.stems_us"] = stageMean(core.StageStem)
	m["core.stem_splits"] = a.splits / n
	m["core.casean_us"] = stageMean(core.StageCase)
	m["core.backtracks"] = a.backtrack / n
	m["core.decisions"] = a.decisions / n
	m["core.abandoned"] = float64(a.abandoned)
}

// merge folds another aggregate in.
func (a *engineAgg) merge(b *engineAgg) {
	a.checks += b.checks
	for st := range a.stageUs {
		a.stageUs[st] += b.stageUs[st]
		a.stageRuns[st] += b.stageRuns[st]
	}
	a.props += b.props
	a.narrow += b.narrow
	a.qhw += b.qhw
	a.doms += b.doms
	a.rounds += b.rounds
	a.splits += b.splits
	a.backtrack += b.backtrack
	a.decisions += b.decisions
	a.abandoned += b.abandoned
}

// spanTracer is a core.Tracer that records each check and each pipeline
// stage as a span under a caller-chosen parent, and feeds an engineAgg.
// It serves one goroutine (serial checks only).
type spanTracer struct {
	rec        *spanRecorder
	lane       int
	parent     int
	check      int
	stageStart time.Time
	agg        *engineAgg
}

func (t *spanTracer) CheckStart(circuit.NetID, waveform.Time) {
	t.check = t.rec.open("core.check", t.lane, t.parent)
}
func (t *spanTracer) StageEnter(core.Stage) { t.stageStart = time.Now() }
func (t *spanTracer) StageExit(st core.Stage, _ core.Result, _ time.Duration) {
	t.rec.add(stageLayer[st], t.lane, t.check, t.stageStart, time.Now())
}
func (t *spanTracer) DominatorRound(int, int, bool)    {}
func (t *spanTracer) Decision(int, circuit.NetID, int) {}
func (t *spanTracer) Backtrack(int)                    {}
func (t *spanTracer) StemSplit(int, circuit.NetID)     {}
func (t *spanTracer) CheckDone(rep *core.Report) {
	t.rec.close(t.check)
	t.agg.addReport(rep)
}

// writeSpans writes and validates the run's span file and prints the
// per-layer self-time table to standard error.
func writeSpans(rec *spanRecorder, cfg config, workload string) error {
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", workload, cfg.seed))
	n, err := rec.write(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s (%d events, obs.ValidateTrace ok)\n", path, n)
	fmt.Fprintf(os.Stderr, "perfbench: %-28s %8s %12s %12s\n", "layer", "calls", "total_ms", "self_ms")
	for _, lt := range rec.selfTimes() {
		fmt.Fprintf(os.Stderr, "perfbench: %-28s %8d %12.3f %12.3f\n", lt.name, lt.calls, ms(lt.total), ms(lt.self))
	}
	return nil
}
