package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/waveform"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_search.json from the current engine")

const goldenSearchFile = "testdata/golden_search.json"

// goldenSearch is one circuit's recorded search: a sha256 over every
// pipeline event and every finished report, plus two counts that make
// a mismatch easier to read.
type goldenSearch struct {
	Digest    string `json:"digest"`
	Checks    int    `json:"checks"`
	Decisions int    `json:"decisions"`
}

// digestTracer folds every event of a serial run into one hash. Stage
// timings and wall-clock fields are left out: everything else the
// engine reports — decision order, backtracks, stem splits, dominator
// rounds, propagation counts, dominator sets and witnesses — must
// repeat exactly.
type digestTracer struct {
	h         hash.Hash
	checks    int
	decisions int
}

func (t *digestTracer) CheckStart(sink circuit.NetID, delta waveform.Time) {
	fmt.Fprintf(t.h, "start %d %d\n", sink, delta)
}
func (t *digestTracer) StageEnter(st Stage) { fmt.Fprintf(t.h, "enter %d\n", st) }
func (t *digestTracer) StageExit(st Stage, res Result, _ time.Duration) {
	fmt.Fprintf(t.h, "exit %d %s\n", st, res)
}
func (t *digestTracer) DominatorRound(round, doms int, narrowed bool) {
	fmt.Fprintf(t.h, "dom %d %d %t\n", round, doms, narrowed)
}
func (t *digestTracer) Decision(depth int, n circuit.NetID, val int) {
	t.decisions++
	fmt.Fprintf(t.h, "decide %d %d %d\n", depth, n, val)
}
func (t *digestTracer) Backtrack(total int) { fmt.Fprintf(t.h, "bt %d\n", total) }
func (t *digestTracer) StemSplit(split int, stem circuit.NetID) {
	fmt.Fprintf(t.h, "stem %d %d\n", split, stem)
}
func (t *digestTracer) CheckDone(r *Report) {
	t.checks++
	fmt.Fprintf(t.h, "done %d %d %s %s %s %d %s %s %v %d %d %v %v %d %d %d %d %d %d\n",
		r.Sink, r.Delta, r.BeforeGITD, r.AfterGITD, r.AfterStem, r.Backtracks,
		r.CaseAnalysis, r.Final, r.Witness, r.WitnessSettle, r.Dominators,
		r.DominatorSet.Nets, r.DominatorSet.Dist, r.DominatorRounds, r.Propagations,
		r.Stats.Narrowings, r.Stats.QueueHighWater, r.Stats.Decisions, r.Stats.StemSplits)
}

// goldenBudget is the backtrack budget of the golden run: the paper's
// default, except on the c6288 stand-in, whose δ search abandons
// quickly at a small budget.
func goldenBudget(name string) int {
	if name == "c6288" {
		return 100
	}
	return Default().MaxBacktracks
}

// runGoldenSearch replays the Table-1 row protocol serially on one
// circuit — the exact-delay search, then full sweeps at δ+1 and δ —
// and digests every event.
func runGoldenSearch(name string, c *circuit.Circuit) goldenSearch {
	opts := Default()
	opts.MaxBacktracks = goldenBudget(name)
	v := NewVerifier(c, opts)
	tr := &digestTracer{h: sha256.New()}
	req := Request{Workers: 1, Tracer: tr}
	res, err := v.CircuitFloatingDelayCtx(context.Background(), req)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(tr.h, "delay %d %t %d %v\n", res.Delay, res.Exact, res.Lower, res.Witness)
	for _, d := range []waveform.Time{res.Delay.Add(1), res.Delay} {
		r := req
		r.Delta = d
		cr := v.RunAll(context.Background(), r)
		fmt.Fprintf(tr.h, "circuit %d %s %s %s %d %s %s %d\n", cr.Delta, cr.BeforeGITD,
			cr.AfterGITD, cr.AfterStem, cr.Backtracks, cr.CaseAnalysis, cr.Final, cr.WitnessOutput)
	}
	return goldenSearch{Digest: hex.EncodeToString(tr.h.Sum(nil)), Checks: tr.checks, Decisions: tr.decisions}
}

// TestGoldenSearchTrace pins the search of every substitute-suite
// circuit to a digest recorded before the dominator computation was
// made allocation-free: any change to decision order, propagation
// counts, dominator sets or witnesses fails it. Regenerate with
// -update-golden only for a change that is meant to move the search.
func TestGoldenSearchTrace(t *testing.T) {
	got := map[string]goldenSearch{}
	for _, e := range gen.SubstituteSuite() {
		got[e.Name] = runGoldenSearch(e.Name, e.Circuit)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenSearchFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSearchFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenSearchFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenSearch
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d circuits, suite has %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden entry", name)
		} else if g != w {
			t.Errorf("%s: search changed: got %+v, want %+v", name, g, w)
		}
	}
}
