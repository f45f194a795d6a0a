package dom

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/waveform"
)

func mustBuild(t testing.TB, src string, d int64) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBenchString(src, circuit.BenchOptions{DefaultDelay: d})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func id(t testing.TB, c *circuit.Circuit, name string) circuit.NetID {
	t.Helper()
	n, ok := c.NetByName(name)
	if !ok {
		t.Fatalf("no net %q", name)
	}
	return n
}

func names(c *circuit.Circuit, nets []circuit.NetID) []string {
	out := make([]string, len(nets))
	for i, n := range nets {
		out[i] = c.Net(n).Name
	}
	return out
}

// chain: a → n1 → n2 → z, with a short side path b → z.
const chain = `
INPUT(a)
INPUT(b)
OUTPUT(z)
n1 = BUFF(a)
n2 = NOT(n1)
z = AND(n2, b)
`

func TestStaticDominatorsChain(t *testing.T) {
	c := mustBuild(t, chain, 10)
	a := delay.New(c)
	z := id(t, c, "z")
	// δ=30: only the full chain qualifies; every chain net dominates.
	d := Static(c, a, z, 30)
	got := names(c, d.Nets)
	want := []string{"z", "n2", "n1", "a"}
	if len(got) != len(want) {
		t.Fatalf("dominators = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dominators = %v, want %v", got, want)
		}
	}
	// Distances are the topological delays to the sink.
	wantDist := []waveform.Time{0, 10, 20, 30}
	for i := range wantDist {
		if d.Dist[i] != wantDist[i] {
			t.Fatalf("dist = %v, want %v", d.Dist, wantDist)
		}
	}
}

func TestStaticDominatorsDiamond(t *testing.T) {
	// Two equal-length branches: only the fork and join dominate.
	src := `
INPUT(a)
OUTPUT(z)
p = BUFF(a)
q = NOT(p)
r = BUFF(p)
z = AND(q, r)
`
	c := mustBuild(t, src, 10)
	a := delay.New(c)
	z := id(t, c, "z")
	d := Static(c, a, z, 30)
	got := names(c, d.Nets)
	want := []string{"z", "p", "a"}
	if len(got) != len(want) {
		t.Fatalf("dominators = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dominators = %v, want %v", got, want)
		}
	}
}

func TestStaticDominatorsNoCarrier(t *testing.T) {
	c := mustBuild(t, chain, 10)
	a := delay.New(c)
	z := id(t, c, "z")
	d := Static(c, a, z, 99)
	if len(d.Nets) != 0 {
		t.Fatalf("no dominators expected beyond top, got %v", names(c, d.Nets))
	}
}

func TestStaticCarriersExposed(t *testing.T) {
	c := mustBuild(t, chain, 10)
	a := delay.New(c)
	z := id(t, c, "z")
	mask := StaticCarriers(c, a, z, 30)
	if !mask[id(t, c, "a")] || mask[id(t, c, "b")] {
		t.Fatal("carrier mask wrong")
	}
}

func TestDynamicCarriersRespectDomains(t *testing.T) {
	c := mustBuild(t, chain, 10)
	z := id(t, c, "z")
	sys := constraint.New(c)
	sys.Narrow(z, waveform.CheckOutput(30))
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		t.Fatal("δ=30 must stay consistent")
	}
	var sc Scratch
	sc.Carriers(sys, z, 30)
	mask, dist := sc.Mask, sc.Dist
	// b's domain was narrowed to class 1 with Lmax 0; a transition at
	// or after δ−10 = 20 is impossible on b, so b is not a carrier.
	if mask[id(t, c, "b")] {
		t.Fatal("b must not be a dynamic carrier")
	}
	for _, n := range []string{"z", "n2", "n1", "a"} {
		if !mask[id(t, c, n)] {
			t.Fatalf("%s must be a dynamic carrier", n)
		}
	}
	if dist[id(t, c, "a")] != 30 || dist[id(t, c, "n2")] != 10 {
		t.Fatalf("dynamic distances wrong: a=%s n2=%s", dist[id(t, c, "a")], dist[id(t, c, "n2")])
	}
}

func TestDynamicDominatorsAndNarrowing(t *testing.T) {
	// Reconvergent structure where one branch is too slow to carry the
	// violation: the join inputs disambiguate only via dominators.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
p = BUFF(a)
q = BUFF(p)
r = BUFF(q)
s = BUFF(r)
z = AND(s, b)
`
	c := mustBuild(t, src, 10)
	z := id(t, c, "z")
	sys := constraint.New(c)
	sys.Narrow(z, waveform.CheckOutput(50))
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		t.Fatal("must be consistent")
	}
	doms := Dynamic(sys, z, 50)
	got := names(c, doms.Nets)
	want := []string{"z", "s", "r", "q", "p", "a"}
	if len(got) != len(want) {
		t.Fatalf("dominators = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dominators = %v, want %v", got, want)
		}
	}
	changed := NarrowDominators(sys, doms, 50)
	// The chain was already fully narrowed by plain propagation here,
	// so dominator narrowing may or may not change domains; it must at
	// least keep the system consistent.
	_ = changed
	if !sys.Fixpoint() {
		t.Fatal("dominator narrowing must preserve consistency")
	}
	// a must now be pinned to a transition at time exactly 0.
	da := sys.Domain(id(t, c, "a"))
	if da.W0.Lmin != 0 || da.W1.Lmin != 0 {
		t.Fatalf("a = %s, want Lmin 0 on both classes", da)
	}
}

// TestDynamicDominatorCarrySkip reproduces the paper's carry-skip
// situation (Figures 2–3) in miniature: a long ripple path and a short
// skip path reconverge at a NAND; beyond the reconvergence the chain
// continues through X to the output. The last-transition interval
// propagates from the output to X but cannot cross the ambiguous NAND
// by local reasoning alone; the dynamic dominator on the ripple input
// C2 recovers the implication.
func TestDynamicDominatorCarrySkip(t *testing.T) {
	src := `
INPUT(c2)
INPUT(sel)
OUTPUT(c7)
r1 = BUFF(c2)
r2 = BUFF(r1)
r3 = BUFF(r2)
n = NAND(r3, sel)
p = NAND(c2, sel)
x = NAND(n, p)
c7 = BUFF(x)
`
	c := mustBuild(t, src, 10)
	c7 := id(t, c, "c7")
	sys := constraint.New(c)
	// Longest path: c2→r1→r2→r3→n→x→c7 = 60.
	sys.Narrow(c7, waveform.CheckOutput(60))
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		t.Fatal("must be consistent")
	}
	// Local propagation reaches x but cannot decide between n and p...
	// n is the only input of x fast enough for δ=60, so this small case
	// still disambiguates locally; the dominator set must nevertheless
	// contain the full ripple spine.
	doms := Dynamic(sys, c7, 60)
	has := map[string]bool{}
	for _, n := range doms.Nets {
		has[c.Net(n).Name] = true
	}
	for _, want := range []string{"c7", "x", "n", "r3", "r2", "r1", "c2"} {
		if !has[want] {
			t.Fatalf("dominators missing %s: %v", want, names(c, doms.Nets))
		}
	}
	if has["p"] || has["sel"] {
		t.Fatalf("side nets must not dominate: %v", names(c, doms.Nets))
	}
	if !NarrowDominators(sys, doms, 60) && sys.Domain(id(t, c, "c2")).W0.Lmin != 0 {
		t.Fatal("dominator narrowing must pin c2")
	}
	if !sys.Fixpoint() {
		t.Fatal("must remain consistent after dominator narrowing")
	}
}

func TestNarrowDominatorsDetectsInfeasible(t *testing.T) {
	// If the dominator's domain cannot contain a late-enough
	// transition, Corollary-1 narrowing empties it and the check is
	// refuted.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
p = BUFF(a)
z = AND(p, b)
`
	c := mustBuild(t, src, 10)
	z := id(t, c, "z")
	sys := constraint.New(c)
	sys.Narrow(z, waveform.CheckOutput(20))
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		t.Fatal("δ=20 is exactly the topological delay: consistent")
	}
	doms := Dynamic(sys, z, 20)
	NarrowDominators(sys, doms, 20)
	if !sys.Fixpoint() {
		t.Fatal("must remain consistent: the check is realisable")
	}
}

// oracleDominatorsOfT is the sort-based dominator computation the
// scratch path replaced, kept as a test oracle: it collects the
// carriers, sorts them by level (descending, ties by id) and builds
// the idom chain of T with freshly allocated arrays.
func oracleDominatorsOfT(c *circuit.Circuit, carrier []bool, sink circuit.NetID) []circuit.NetID {
	if !carrier[sink] {
		return nil
	}
	var verts []circuit.NetID
	for n := range carrier {
		if carrier[n] {
			verts = append(verts, circuit.NetID(n))
		}
	}
	sort.Slice(verts, func(i, j int) bool {
		li, lj := c.Level(verts[i]), c.Level(verts[j])
		if li != lj {
			return li > lj
		}
		return verts[i] < verts[j]
	})
	if verts[0] != sink {
		return nil
	}
	const tVertex = -1
	ord := make([]int32, len(carrier))
	for i, v := range verts {
		ord[v] = int32(i)
	}
	nT := len(verts)
	idom := make([]int, len(verts)+1)
	for i := range idom {
		idom[i] = tVertex
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	var tPreds []int
	for i := 1; i < len(verts); i++ {
		best := tVertex
		for _, g := range c.Net(verts[i]).Fanout {
			y := c.Gate(g).Output
			if !carrier[y] {
				continue
			}
			p := int(ord[y])
			if idom[p] == tVertex && p != 0 {
				continue
			}
			if best == tVertex {
				best = p
			} else {
				best = intersect(best, p)
			}
		}
		idom[i] = best
	}
	for i, x := range verts {
		hasCarrierInput := false
		if d := c.Net(x).Driver; d != circuit.InvalidGate {
			for _, in := range c.Gate(d).Inputs {
				if carrier[in] {
					hasCarrierInput = true
					break
				}
			}
		}
		if !hasCarrierInput && (i == 0 || idom[i] != tVertex) {
			tPreds = append(tPreds, i)
		}
	}
	if len(tPreds) == 0 {
		return nil
	}
	best := tPreds[0]
	for _, p := range tPreds[1:] {
		best = intersect(best, p)
	}
	idom[nT] = best
	var doms []circuit.NetID
	for v := idom[nT]; ; v = idom[v] {
		doms = append(doms, verts[v])
		if v == 0 {
			break
		}
	}
	for i, j := 0, len(doms)-1; i < j; i, j = i+1, j-1 {
		doms[i], doms[j] = doms[j], doms[i]
	}
	return doms
}

// oracleCarriers is the allocating dynamic-carrier computation
// (Definitions 7–8) the scratch path replaced.
func oracleCarriers(sys *constraint.System, sink circuit.NetID, delta waveform.Time) ([]bool, []waveform.Time) {
	c := sys.Circuit()
	mask := make([]bool, c.NumNets())
	dist := make([]waveform.Time, c.NumNets())
	for i := range dist {
		dist[i] = waveform.NegInf
	}
	if sys.Domain(sink).IsEmpty() {
		return mask, dist
	}
	mask[sink] = true
	dist[sink] = 0
	topo := c.TopoGates()
	for i := len(topo) - 1; i >= 0; i-- {
		g := c.Gate(topo[i])
		if !mask[g.Output] {
			continue
		}
		kp := dist[g.Output].Add(waveform.Time(g.Delay))
		for _, x := range g.Inputs {
			if dist[x] < kp && sys.Domain(x).HasTransitionAtOrAfter(delta.Sub(kp)) {
				mask[x] = true
				dist[x] = kp
			}
		}
	}
	return mask, dist
}

// checkScratchMatchesOracle runs sc.Dynamic and the oracle on the same
// domains and compares carriers, distances and dominators element by
// element.
func checkScratchMatchesOracle(t *testing.T, what string, sc *Scratch, sys *constraint.System, sink circuit.NetID, delta waveform.Time) Dominators {
	t.Helper()
	c := sys.Circuit()
	got := sc.Dynamic(sys, sink, delta)
	mask, dist := oracleCarriers(sys, sink, delta)
	if !slices.Equal(sc.Mask, mask) {
		t.Fatalf("%s: carrier mask differs from the oracle", what)
	}
	if !slices.Equal(sc.Dist, dist) {
		t.Fatalf("%s: dynamic distances differ from the oracle", what)
	}
	nets := oracleDominatorsOfT(c, mask, sink)
	var wantDist []waveform.Time
	for _, n := range nets {
		wantDist = append(wantDist, dist[n])
	}
	if !slices.Equal(got.Nets, nets) || !slices.Equal(got.Dist, wantDist) {
		t.Fatalf("%s: dominators %v %v, oracle %v %v", what, got.Nets, got.Dist, nets, wantDist)
	}
	if fresh := Dynamic(sys, sink, delta); !slices.Equal(fresh.Nets, nets) || !slices.Equal(fresh.Dist, wantDist) {
		t.Fatalf("%s: Dynamic on a fresh scratch %v, oracle %v", what, fresh.Nets, nets)
	}
	return got
}

// TestScratchMatchesSortedOracle is the differential test of the
// allocation-free dominator path against the sort-based oracle. One
// scratch serves every circuit, sink, δ and narrowed domain set —
// circuits of different sizes, empty results after non-empty ones —
// so stale state from an earlier call would show up as a mismatch.
func TestScratchMatchesSortedOracle(t *testing.T) {
	var sc Scratch
	r := rand.New(rand.NewSource(7))
	var circuits []*circuit.Circuit
	for seed := int64(1); seed <= 40; seed++ {
		for _, d := range []int64{0, 1, 10} {
			circuits = append(circuits, gen.Random(seed, 3+int(seed%6), 8+int(seed*7%60), d))
		}
		circuits = append(circuits, randomCircuit(t, 300+seed, 4, 10+int(seed%20)))
	}
	checks, nonEmpty, emptyAfter := 0, 0, 0
	for ci, c := range circuits {
		a := delay.New(c)
		for _, sink := range c.PrimaryOutputs() {
			top := a.Arrival(sink)
			for _, delta := range []waveform.Time{top.Add(1), top, top.Sub(1), top.Sub(3), top / 2, 0} {
				sys := constraint.New(c)
				sys.Narrow(sink, waveform.CheckOutput(delta))
				sys.ScheduleAll()
				consistent := sys.Fixpoint()
				what := fmt.Sprintf("circuit %d (%s) sink %s δ=%s", ci, c.Name, c.Net(sink).Name, delta)
				prevNonEmpty := len(sc.nets) > 0
				got := checkScratchMatchesOracle(t, what, &sc, sys, sink, delta)
				checks++
				if len(got.Nets) > 0 {
					nonEmpty++
				} else if prevNonEmpty {
					emptyAfter++
				}
				if !consistent {
					continue
				}
				// Random narrowings, as case analysis makes them: pin a
				// few nets to a settled class and re-solve.
				for step := 0; step < 4; step++ {
					n := circuit.NetID(r.Intn(c.NumNets()))
					sys.Narrow(n, waveform.SettledTo(r.Intn(2)))
					if !sys.Fixpoint() {
						break
					}
					prevNonEmpty = len(sc.nets) > 0
					got = checkScratchMatchesOracle(t, fmt.Sprintf("%s after %d narrowings", what, step+1), &sc, sys, sink, delta)
					checks++
					if len(got.Nets) > 0 {
						nonEmpty++
					} else if prevNonEmpty {
						emptyAfter++
					}
				}
			}
		}
	}
	t.Logf("%d checks, %d with dominators, %d empty results after non-empty ones", checks, nonEmpty, emptyAfter)
	if nonEmpty < checks/4 || emptyAfter < 20 {
		t.Fatalf("weak coverage: %d checks, %d with dominators, %d empty-after-non-empty", checks, nonEmpty, emptyAfter)
	}
}

// TestScratchEmptyAfterNonEmpty pins the stale-result case directly: a
// check whose sink domain is empty has no carriers, and a scratch that
// just returned a long dominator chain must return none for it.
func TestScratchEmptyAfterNonEmpty(t *testing.T) {
	c := mustBuild(t, chain, 10)
	z := id(t, c, "z")
	var sc Scratch
	for i, refuted := range []bool{false, true, false, true} {
		sys := constraint.New(c)
		sys.Narrow(z, waveform.CheckOutput(30))
		sys.ScheduleAll()
		if !sys.Fixpoint() {
			t.Fatal("δ=30 must stay consistent")
		}
		want := 4
		if refuted {
			sys.Narrow(z, waveform.EmptySignal)
			want = 0
		}
		got := sc.Dynamic(sys, z, 30)
		if len(got.Nets) != want || len(got.Dist) != want {
			t.Fatalf("call %d: %d dominators (%d distances), want %d", i, len(got.Nets), len(got.Dist), want)
		}
		if slices.Contains(sc.Mask, true) != !refuted {
			t.Fatalf("call %d: carrier mask %v", i, sc.Mask)
		}
	}
}
