package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/waveform"
)

// cloneDoms deep-copies a dominator set so later comparisons cannot
// be fooled by shared backing arrays.
func cloneDoms(d dom.Dominators) dom.Dominators {
	return dom.Dominators{Nets: slices.Clone(d.Nets), Dist: slices.Clone(d.Dist)}
}

func domsEqual(a, b dom.Dominators) bool {
	return slices.Equal(a.Nets, b.Nets) && slices.Equal(a.Dist, b.Dist)
}

// TestDominatorSetNotAliased pins that a report's dominator set owns
// its storage: the per-check dominator scratch is reused by later
// checks on the same verifier and the same arena, and a whole-circuit
// check's DominatorSet must not change when they run.
func TestDominatorSetNotAliased(t *testing.T) {
	c, err := circuit.MapToNOR(gen.ArrayMultiplier(4, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	opts := Default()
	opts.UseConeSlicing = false
	opts.MaxBacktracks = 50
	v := NewVerifier(c, opts)
	pos := c.PrimaryOutputs()
	top := v.Topological()
	for _, arena := range []*ReportArena{nil, new(ReportArena)} {
		var kept []dom.Dominators
		var want []dom.Dominators
		for _, po := range pos {
			arr := v.analysis.Arrival(po)
			for _, delta := range []waveform.Time{arr.Sub(20), arr} {
				rep := v.Run(context.Background(), Request{Sink: po, Delta: delta, Arena: arena})
				if rep.Dominators > 0 {
					kept = append(kept, rep.DominatorSet)
					want = append(want, cloneDoms(rep.DominatorSet))
				}
			}
		}
		if len(kept) < 2 {
			t.Fatalf("arena=%v: only %d checks reported dominators; the test needs several", arena != nil, len(kept))
		}
		// Run more checks through the same verifier and arena.
		for _, po := range pos {
			v.Run(context.Background(), Request{Sink: po, Delta: top, Arena: arena})
		}
		for i := range kept {
			if !domsEqual(kept[i], want[i]) {
				t.Fatalf("arena=%v: dominator set %d changed under later checks: %v, want %v",
					arena != nil, i, kept[i], want[i])
			}
		}
	}
}

// TestCaseAnalysisAllocsFlatInBudget pins that the case-analysis search
// allocates nothing per decision: a c6288-class check abandoned after
// 20 backtracks and the same check abandoned after 200 allocate the
// same amount per run once the arena has warmed up.
func TestCaseAnalysisAllocsFlatInBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs c6288-class case analysis")
	}
	v, po, delta := hardCase(t)
	allocs := func(budget int) float64 {
		req := Request{Sink: po, Delta: delta, Arena: new(ReportArena),
			Budgets: Budgets{MaxBacktracks: budget}}
		return testing.AllocsPerRun(3, func() {
			if rep := v.Run(context.Background(), req); rep.Final != Abandoned || rep.CaseAnalysis != Abandoned {
				t.Fatalf("budget %d: got %s (case analysis %s), want an abandoned case analysis",
					budget, rep.Final, rep.CaseAnalysis)
			}
		})
	}
	small, large := allocs(20), allocs(200)
	t.Logf("allocs per run: budget 20 → %.0f, budget 200 → %.0f", small, large)
	if large > small {
		t.Fatalf("allocations grow with the backtrack budget: %.0f at 20, %.0f at 200", small, large)
	}
}
