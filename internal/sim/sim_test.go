package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
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

const andOr = `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
x = AND(a, b)
z = OR(x, c)
`

func id(t testing.TB, c *circuit.Circuit, name string) circuit.NetID {
	t.Helper()
	n, ok := c.NetByName(name)
	if !ok {
		t.Fatalf("no net %q", name)
	}
	return n
}

func TestRunValues(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	r, err := Run(c, Vector{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value[id(t, c, "x")] != 1 || r.Value[id(t, c, "z")] != 1 {
		t.Fatal("values wrong")
	}
	r, _ = Run(c, Vector{0, 1, 0})
	if r.Value[id(t, c, "z")] != 0 {
		t.Fatal("value wrong")
	}
}

func TestRunSettleControlling(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	// a=1,b=1,c=0: x settles via max rule at 10; z final 1 with no
	// controlling-1 input stable... c=0 is non-controlling for OR, x=1
	// IS controlling for OR: z locks once x locks: 10+10=20.
	r, _ := Run(c, Vector{1, 1, 0})
	if got := r.Settle[id(t, c, "x")]; got != 10 {
		t.Fatalf("x settle = %s", got)
	}
	if got := r.Settle[id(t, c, "z")]; got != 20 {
		t.Fatalf("z settle = %s", got)
	}
	// a=0: x final 0 locks at 10 (a controls); z final 0: no controlling
	// input, max rule: 10+10=20.
	r, _ = Run(c, Vector{0, 1, 0})
	if got := r.Settle[id(t, c, "x")]; got != 10 {
		t.Fatalf("x settle = %s", got)
	}
	if got := r.Settle[id(t, c, "z")]; got != 20 {
		t.Fatalf("z settle = %s", got)
	}
}

func TestRunControllingShortCircuit(t *testing.T) {
	// A controlling-final side input must cap the settle time of a long
	// path: z = AND(slowpath, b) with b=0 locks z early.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
n1 = BUFF(a)
n2 = BUFF(n1)
n3 = BUFF(n2)
z = AND(n3, b)
`
	c := mustBuild(t, src, 10)
	r, _ := Run(c, Vector{1, 0})
	// b=0 controls the AND: z locks at 0+10, despite n3 locking at 30.
	if got := r.Settle[id(t, c, "z")]; got != 10 {
		t.Fatalf("z settle = %s, want 10", got)
	}
	r, _ = Run(c, Vector{1, 1})
	if got := r.Settle[id(t, c, "z")]; got != 40 {
		t.Fatalf("z settle = %s, want 40", got)
	}
}

func TestRunErrors(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	if _, err := Run(c, Vector{1, 1}); err == nil {
		t.Fatal("short vector must error")
	}
	if _, err := Run(c, Vector{1, 2, 0}); err == nil {
		t.Fatal("non-binary bit must error")
	}
}

// TestResultRunReuse pins that simulating into one reused Result —
// across circuits of decreasing and increasing size, and after a
// rejected vector — gives exactly what a fresh Run gives.
func TestResultRunReuse(t *testing.T) {
	var r Result
	for _, n := range []int{20, 6, 14, 3, 20} {
		c := randomCircuit(t, int64(n), 4, n)
		if err := r.Run(c, Vector{1, 2, 0, 1}); err == nil {
			t.Fatal("non-binary bit must error")
		}
		for bits := 0; bits < 16; bits++ {
			v := Vector{bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, (bits >> 3) & 1}
			want, err := Run(c, v)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(c, v); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(r.Value, want.Value) || !slices.Equal(r.Settle, want.Settle) {
				t.Fatalf("%d gates, vector %s: reused result %v/%v, fresh %v/%v",
					n, v, r.Value, r.Settle, want.Value, want.Settle)
			}
		}
	}
}

func TestViolates(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	r, _ := Run(c, Vector{1, 1, 0})
	z := id(t, c, "z")
	if !r.Violates(z, 20) {
		t.Fatal("settle 20 must violate δ=20")
	}
	if r.Violates(z, 21) {
		t.Fatal("settle 20 must not violate δ=21")
	}
}

func TestVectorString(t *testing.T) {
	if (Vector{1, 0, 1}).String() != "101" {
		t.Fatal("vector string wrong")
	}
}

func TestLogic(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	vals, err := Logic(c, Vector{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if vals[id(t, c, "z")] != 1 {
		t.Fatal("logic value wrong")
	}
}

func TestFloatingDelayExhaustive(t *testing.T) {
	// The classic false-path pattern: z = MUX-ish structure where the
	// long path cannot be sensitised.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
n1 = BUFF(a)
n2 = BUFF(n1)
n3 = AND(n2, b)
nb = NOT(b)
n4 = AND(a, nb)
z = OR(n3, n4)
`
	c := mustBuild(t, src, 10)
	z := id(t, c, "z")
	d, v, err := FloatingDelayExhaustive(c, z)
	if err != nil {
		t.Fatal(err)
	}
	// Longest topological path: a→n1→n2→n3→z = 40.
	// b=1: n4 path dead but n3 path live: settle(n3)=min? b ctrl-final
	// when b=0. With a=1,b=1: n3 = AND(n2,b): final 1: max rule:
	// max(30,0)+10=40 → z=OR: n3 ctrl-final(1): min(40, ...)→ 40+10=50?
	// z's delay adds 10: z = 50 with topological 50. So the check is
	// simply that the oracle agrees with per-vector Run.
	r, _ := Run(c, v)
	if r.Settle[z] != d {
		t.Fatalf("oracle/vector mismatch: %s vs %s", r.Settle[z], d)
	}
	// And d must be the max over all vectors.
	k := len(c.PrimaryInputs())
	for bits := 0; bits < 1<<k; bits++ {
		vv := make(Vector, k)
		for i := range vv {
			vv[i] = (bits >> i) & 1
		}
		rr, _ := Run(c, vv)
		if rr.Settle[z] > d {
			t.Fatalf("vector %s beats the oracle", vv)
		}
	}
}

func TestCircuitFloatingDelayExhaustive(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	d, err := CircuitFloatingDelayExhaustive(c)
	if err != nil {
		t.Fatal(err)
	}
	if d != 20 {
		t.Fatalf("circuit floating delay = %s, want 20", d)
	}
}

// randomCircuit builds a seeded random DAG netlist for cross-validation
// tests.
func randomCircuit(t testing.TB, seed int64, nPI, nGates int) *circuit.Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder("rand")
	var nets []string
	for i := 0; i < nPI; i++ {
		n := string(rune('a' + i))
		b.Input(n)
		nets = append(nets, n)
	}
	types := []circuit.GateType{circuit.AND, circuit.NAND, circuit.OR, circuit.NOR, circuit.NOT, circuit.BUFFER, circuit.XOR, circuit.XNOR}
	for i := 0; i < nGates; i++ {
		gt := types[r.Intn(len(types))]
		name := "g" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		nin := 1
		if !gt.Unate() {
			nin = 2 + r.Intn(2)
		}
		ins := make([]string, nin)
		for j := range ins {
			ins[j] = nets[r.Intn(len(nets))]
		}
		b.Gate(gt, int64(1+r.Intn(4)), name, ins...)
		nets = append(nets, name)
	}
	b.Output(nets[len(nets)-1])
	b.Output(nets[len(nets)-2])
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunMatchesXSim(t *testing.T) {
	// Property: the settle recursion equals the last differing time of
	// the concrete three-valued unrolled simulation, for every net and
	// every vector, on many random circuits.
	for seed := int64(0); seed < 30; seed++ {
		c := randomCircuit(t, seed, 4, 12)
		horizon := waveform.Time(0)
		for i := 0; i < c.NumGates(); i++ {
			horizon = horizon.Add(waveform.Time(c.Gate(circuit.GateID(i)).Delay))
		}
		for bits := 0; bits < 16; bits++ {
			v := Vector{bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, (bits >> 3) & 1}
			r, err := Run(c, v)
			if err != nil {
				t.Fatal(err)
			}
			x, err := RunX(c, v, horizon.Add(1))
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < c.NumNets(); n++ {
				nid := circuit.NetID(n)
				if r.Value[n] != x.Final[n] {
					t.Fatalf("seed %d vector %s: final value of %s differs", seed, v, c.Net(nid).Name)
				}
				want := x.LastDiff(nid)
				if want == waveform.NegInf {
					// The recursion never reports -inf (it reports the
					// lock time); nets identical-from-t=0 can only be
					// PIs... which are X at t=0, so this cannot happen.
					t.Fatalf("seed %d: net %s never differs, unexpected", seed, c.Net(nid).Name)
				}
				if r.Settle[n] != want {
					t.Fatalf("seed %d vector %s net %s: recursion %s, x-sim %s",
						seed, v, c.Net(nid).Name, r.Settle[n], want)
				}
			}
		}
	}
}

func TestRunXInputConvention(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
z = BUFF(a)
`
	c := mustBuild(t, src, 5)
	x, err := RunX(c, Vector{1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	a := id(t, c, "a")
	z := id(t, c, "z")
	if x.Wave[a][0] != LX || x.Wave[a][1] != L1 {
		t.Fatal("PI must be X at t=0 and settled at t=1")
	}
	if x.LastDiff(a) != 0 {
		t.Fatal("PI last diff must be 0")
	}
	if x.LastDiff(z) != 5 {
		t.Fatalf("buffer last diff = %s, want 5", x.LastDiff(z))
	}
}

func TestEval3(t *testing.T) {
	type tc struct {
		g    circuit.GateType
		in   []uint8
		want uint8
	}
	cases := []tc{
		{circuit.AND, []uint8{L0, LX}, L0},
		{circuit.AND, []uint8{L1, LX}, LX},
		{circuit.NAND, []uint8{L0, LX}, L1},
		{circuit.OR, []uint8{L1, LX}, L1},
		{circuit.OR, []uint8{L0, LX}, LX},
		{circuit.NOR, []uint8{L1, LX}, L0},
		{circuit.NOT, []uint8{LX}, LX},
		{circuit.NOT, []uint8{L0}, L1},
		{circuit.XOR, []uint8{L1, LX}, LX},
		{circuit.XOR, []uint8{L1, L1}, L0},
		{circuit.XNOR, []uint8{L1, L0}, L0},
		{circuit.BUFFER, []uint8{LX}, LX},
	}
	for _, c := range cases {
		if got := eval3(c.g, c.in); got != c.want {
			t.Errorf("eval3(%s, %v) = %d, want %d", c.g, c.in, got, c.want)
		}
	}
}
