package circuit

import "fmt"

// MapToNOR rewrites the circuit into an equivalent one built only from
// NOR gates (arbitrary fan-in, 1-input NOR acting as inverter), each
// with uniform maximum delay d. The paper's experiments run on NOR-gate
// implementations of the ISCAS'85 benchmarks with a delay of 10 on the
// output of every gate; this pass produces such implementations from
// any netlist in the base library.
func MapToNOR(c *Circuit, d int64) (*Circuit, error) {
	b := NewBuilder(c.Name + "_nor")
	for _, pi := range c.PrimaryInputs() {
		b.Input(c.Net(pi).Name)
	}
	aux := 0
	fresh := func(base string) string {
		aux++
		return fmt.Sprintf("%s$n%d", base, aux)
	}
	// inv emits NOR(x) and returns the inverted net's name.
	inv := func(x, base string) string {
		o := fresh(base)
		b.Gate(NOR, d, o, x)
		return o
	}
	// xorPair emits a 4-NOR XNOR of two nets and returns (xnorNet).
	xnorPair := func(x, y, base string) string {
		n1 := fresh(base)
		b.Gate(NOR, d, n1, x, y)
		n2 := fresh(base)
		b.Gate(NOR, d, n2, x, n1)
		n3 := fresh(base)
		b.Gate(NOR, d, n3, y, n1)
		n4 := fresh(base)
		b.Gate(NOR, d, n4, n2, n3)
		return n4
	}
	for _, gid := range c.TopoGates() {
		g := c.Gate(gid)
		out := c.Net(g.Output).Name
		in := make([]string, len(g.Inputs))
		for i, n := range g.Inputs {
			in[i] = c.Net(n).Name
		}
		switch g.Type {
		case NOR:
			b.Gate(NOR, d, out, in...)
		case OR:
			t := fresh(out)
			b.Gate(NOR, d, t, in...)
			b.Gate(NOR, d, out, t)
		case NOT:
			b.Gate(NOR, d, out, in[0])
		case BUFFER, DELAY:
			b.Gate(NOR, d, out, inv(in[0], out))
		case AND:
			invs := make([]string, len(in))
			for i, x := range in {
				invs[i] = inv(x, out)
			}
			b.Gate(NOR, d, out, invs...)
		case NAND:
			invs := make([]string, len(in))
			for i, x := range in {
				invs[i] = inv(x, out)
			}
			t := fresh(out)
			b.Gate(NOR, d, t, invs...)
			b.Gate(NOR, d, out, t)
		case XOR, XNOR:
			// Left-to-right chain of 2-input XNOR cells with parity
			// bookkeeping: xnorPair computes XNOR, so track how many
			// inversions have accumulated and fix up at the end.
			cur := in[0]
			inverted := false // cur currently holds complement of running XOR?
			for i := 1; i < len(in); i++ {
				cur = xnorPair(cur, in[i], out)
				inverted = !inverted // XNOR(cur, x) = NOT(XOR(cur, x))
			}
			wantInverted := g.Type == XNOR
			if len(in) == 1 {
				if wantInverted {
					b.Gate(NOR, d, out, cur)
				} else {
					b.Gate(NOR, d, out, inv(cur, out))
				}
				break
			}
			if inverted == wantInverted {
				b.Gate(NOR, d, out, inv(cur, out)) // double inversion = buffer
			} else {
				b.Gate(NOR, d, out, cur)
			}
		default:
			return nil, fmt.Errorf("MapToNOR: unsupported gate type %s", g.Type)
		}
	}
	for _, po := range c.PrimaryOutputs() {
		b.Output(c.Net(po).Name)
	}
	return b.Build()
}

// ConeMap relates a cone slice produced by ExtractConeMapped to the
// circuit it was cut from.
type ConeMap struct {
	// ToCone maps original net ids to cone net ids; InvalidNet for nets
	// outside the cone.
	ToCone []NetID
	// FromCone maps cone net ids back to original ids. The cone
	// declares its nets in increasing original-id order, so FromCone is
	// strictly increasing: every relative id comparison (decision
	// tie-breaks, stem ordering, objective sorts) agrees between the
	// cone and the original circuit.
	FromCone []NetID
	// PIIndex maps cone primary-input positions to original
	// primary-input positions, for test-vector translation.
	PIIndex []int
	// Sink is the cone-local id of the extracted output.
	Sink NetID
}

// ExtractConeMapped returns the transitive fan-in cone of the given net
// as a standalone circuit, together with the net-id translation between
// the cone and the original circuit: the net becomes the single primary
// output, the cone's primary inputs are kept, and everything outside the
// cone is dropped. Timing checks on the cone are equivalent to checks on
// the original output (the check only constrains the cone). The slice
// preserves everything a timing check observes: gate types and both
// delay bounds (d_max and d_min), primary-input status, topological
// gate order, and the relative order of net ids.
func ExtractConeMapped(c *Circuit, sink NetID) (*Circuit, *ConeMap, error) {
	mask := c.TransitiveFanin(sink)
	b := NewBuilder(c.Name + "_cone_" + c.Net(sink).Name)
	// Declare every cone net in increasing original-id order before any
	// gate mentions it, so cone ids are assigned in that same order.
	for i := range mask {
		if !mask[i] {
			continue
		}
		n := c.Net(NetID(i))
		if n.IsPI {
			b.Input(n.Name)
		} else {
			b.Net(n.Name)
		}
	}
	for _, gid := range c.TopoGates() {
		g := c.Gate(gid)
		if !mask[g.Output] {
			continue
		}
		in := make([]string, len(g.Inputs))
		for i, n := range g.Inputs {
			in[i] = c.Net(n).Name
		}
		b.Gate(g.Type, g.Delay, c.Net(g.Output).Name, in...)
	}
	b.Output(c.Net(sink).Name)
	cone, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	// Builder.Gate defaults d_min to the d_max argument; carry over the
	// original bounds (SDF back-annotation can set them apart). Cone
	// gate ids follow insertion order, which is the masked original
	// topological order above.
	j := GateID(0)
	for _, gid := range c.TopoGates() {
		g := c.Gate(gid)
		if !mask[g.Output] {
			continue
		}
		cone.Gate(j).DMin = g.DMin
		j++
	}
	cm := &ConeMap{
		ToCone:   make([]NetID, c.NumNets()),
		FromCone: make([]NetID, cone.NumNets()),
	}
	for i := range cm.ToCone {
		cm.ToCone[i] = InvalidNet
	}
	for i := range mask {
		if !mask[i] {
			continue
		}
		id, ok := cone.NetByName(c.Net(NetID(i)).Name)
		if !ok {
			return nil, nil, fmt.Errorf("ExtractConeMapped: cone of %q lost net %q",
				c.Net(sink).Name, c.Net(NetID(i)).Name)
		}
		cm.ToCone[i] = id
		cm.FromCone[id] = NetID(i)
	}
	origPIPos := make(map[NetID]int, len(c.PrimaryInputs()))
	for i, pi := range c.PrimaryInputs() {
		origPIPos[pi] = i
	}
	cm.PIIndex = make([]int, len(cone.PrimaryInputs()))
	for i, pi := range cone.PrimaryInputs() {
		cm.PIIndex[i] = origPIPos[cm.FromCone[pi]]
	}
	cm.Sink = cm.ToCone[sink]
	return cone, cm, nil
}

// WithUniformDelay returns a copy of the circuit with every gate's
// maximum delay replaced by d.
func WithUniformDelay(c *Circuit, d int64) (*Circuit, error) {
	b := NewBuilder(c.Name)
	for _, pi := range c.PrimaryInputs() {
		b.Input(c.Net(pi).Name)
	}
	for _, gid := range c.TopoGates() {
		g := c.Gate(gid)
		in := make([]string, len(g.Inputs))
		for i, n := range g.Inputs {
			in[i] = c.Net(n).Name
		}
		b.Gate(g.Type, d, c.Net(g.Output).Name, in...)
	}
	for _, po := range c.PrimaryOutputs() {
		b.Output(c.Net(po).Name)
	}
	return b.Build()
}
