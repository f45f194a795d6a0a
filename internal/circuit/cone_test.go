package circuit

import "testing"

func TestExtractCone(t *testing.T) {
	c := buildC17(t, 10)
	g22, _ := c.NetByName("G22")
	cone, _, err := ExtractConeMapped(c, g22)
	if err != nil {
		t.Fatal(err)
	}
	// G22's cone: gates G10, G11, G16, G22 and inputs G1, G2, G3, G6.
	st := cone.Stats()
	if st.Gates != 4 || st.PIs != 4 || st.POs != 1 {
		t.Fatalf("cone shape: %+v", st)
	}
	for _, name := range []string{"G7", "G19", "G23"} {
		if _, ok := cone.NetByName(name); ok {
			t.Errorf("%s must not be in G22's cone", name)
		}
	}
	// Functional equivalence over the cone inputs (G1,G2,G3,G6 order
	// may differ; map by name).
	for bits := 0; bits < 16; bits++ {
		coneAsg := map[string]int{}
		for i, n := range []string{"G1", "G2", "G3", "G6"} {
			coneAsg[n] = (bits >> i) & 1
		}
		fullAsg := map[string]int{"G7": 0}
		for n, v := range coneAsg {
			fullAsg[n] = v
		}
		if evalNet(c, "G22", fullAsg) != evalNet(cone, "G22", coneAsg) {
			t.Fatalf("cone differs on vector %04b", bits)
		}
	}
	// Delays preserved.
	for i := 0; i < cone.NumGates(); i++ {
		if cone.Gate(GateID(i)).Delay != 10 {
			t.Fatal("cone lost delays")
		}
	}
}

// TestExtractConeMapped checks the id translation invariants the
// cone-sliced verifier depends on: FromCone strictly increasing (so
// every relative net-id comparison agrees between cone and original),
// ToCone/FromCone mutually inverse, PIIndex pointing at the right
// original primary-input positions, and both delay bounds preserved.
func TestExtractConeMapped(t *testing.T) {
	c := buildC17(t, 10)
	// Split d_min from d_max on every gate so the DMin carry-over is
	// actually exercised (Builder.Gate defaults DMin to the delay arg).
	for i := 0; i < c.NumGates(); i++ {
		c.Gate(GateID(i)).DMin = int64(3 + i)
	}
	g22, _ := c.NetByName("G22")
	cone, cm, err := ExtractConeMapped(c, g22)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Sink == InvalidNet || cone.Net(cm.Sink).Name != "G22" {
		t.Fatalf("Sink = %v (%q), want cone id of G22", cm.Sink, cone.Net(cm.Sink).Name)
	}
	if len(cm.FromCone) != cone.NumNets() || len(cm.ToCone) != c.NumNets() {
		t.Fatalf("map sizes: FromCone %d (cone nets %d), ToCone %d (orig nets %d)",
			len(cm.FromCone), cone.NumNets(), len(cm.ToCone), c.NumNets())
	}
	for i := 1; i < len(cm.FromCone); i++ {
		if cm.FromCone[i] <= cm.FromCone[i-1] {
			t.Fatalf("FromCone not strictly increasing at %d: %v", i, cm.FromCone)
		}
	}
	inCone := 0
	for orig, id := range cm.ToCone {
		if id == InvalidNet {
			continue
		}
		inCone++
		if cm.FromCone[id] != NetID(orig) {
			t.Fatalf("ToCone/FromCone disagree: orig %d -> cone %d -> orig %d",
				orig, id, cm.FromCone[id])
		}
		if cone.Net(id).Name != c.Net(NetID(orig)).Name {
			t.Fatalf("net %d renamed: %q vs %q", orig, c.Net(NetID(orig)).Name, cone.Net(id).Name)
		}
		if cone.Net(id).IsPI != c.Net(NetID(orig)).IsPI {
			t.Fatalf("net %q changed PI status", cone.Net(id).Name)
		}
	}
	if inCone != cone.NumNets() {
		t.Fatalf("ToCone covers %d nets, cone has %d", inCone, cone.NumNets())
	}
	origPIs := c.PrimaryInputs()
	for i, pi := range cone.PrimaryInputs() {
		if origPIs[cm.PIIndex[i]] != cm.FromCone[pi] {
			t.Fatalf("PIIndex[%d] = %d points at %v, want %v",
				i, cm.PIIndex[i], origPIs[cm.PIIndex[i]], cm.FromCone[pi])
		}
	}
	// Both delay bounds survive the slice (gate ids differ; match by
	// output net).
	for j := 0; j < cone.NumGates(); j++ {
		cg := cone.Gate(GateID(j))
		og := c.Gate(c.Net(cm.FromCone[cg.Output]).Driver)
		if cg.Delay != og.Delay || cg.DMin != og.DMin {
			t.Fatalf("gate driving %q: delay [%d,%d], want [%d,%d]",
				cone.Net(cg.Output).Name, cg.DMin, cg.Delay, og.DMin, og.Delay)
		}
	}
}

// TestExtractConeDeterministic extracts the same cone twice and
// requires identical net numbering and gate order — the shared-prepare
// cache hands one slice to many goroutines and differential tests
// assume reproducible ids.
func TestExtractConeDeterministic(t *testing.T) {
	c := buildC17(t, 10)
	g23, _ := c.NetByName("G23")
	a, cma, err := ExtractConeMapped(c, g23)
	if err != nil {
		t.Fatal(err)
	}
	b, cmb, err := ExtractConeMapped(c, g23)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNets() != b.NumNets() || a.NumGates() != b.NumGates() || cma.Sink != cmb.Sink {
		t.Fatalf("shapes differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	for i := 0; i < a.NumNets(); i++ {
		if a.Net(NetID(i)).Name != b.Net(NetID(i)).Name || cma.FromCone[i] != cmb.FromCone[i] {
			t.Fatalf("net %d differs between extractions", i)
		}
	}
	for i := 0; i < a.NumGates(); i++ {
		ga, gb := a.Gate(GateID(i)), b.Gate(GateID(i))
		if ga.Type != gb.Type || ga.Output != gb.Output || len(ga.Inputs) != len(gb.Inputs) {
			t.Fatalf("gate %d differs between extractions", i)
		}
	}
}

func TestExtractConeOfInput(t *testing.T) {
	c := buildC17(t, 10)
	g1, _ := c.NetByName("G1")
	cone, _, err := ExtractConeMapped(c, g1)
	if err != nil {
		t.Fatal(err)
	}
	if cone.NumGates() != 0 || len(cone.PrimaryInputs()) != 1 || len(cone.PrimaryOutputs()) != 1 {
		t.Fatalf("input cone shape: %+v", cone.Stats())
	}
}
