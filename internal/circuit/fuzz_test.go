package circuit

import "testing"

// FuzzReadBench asserts the .bench parser never panics and that
// whatever parses also re-parses after a write round trip.
func FuzzReadBench(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
	f.Add(c17Bench)
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(a, a) # !delay=3\n")
	f.Add("garbage = = (")
	f.Add("INPUT(a)\nOUTPUT(a)\n")
	f.Add("z = XNOR(a, b, c)")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(s)\nw = NAND(a, b) # !delay=10\ns = NOR(w, w) # !delay=0\n")
	f.Add("# comment only\n\n  \nINPUT( spaced )\nOUTPUT( spaced )\n")
	f.Add("INPUT(a)\nOUTPUT(z)\nz = BUFF(a) # !delay=9223372036854775807\n")
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(a, a) # !delay=-3\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseBenchString(src, BenchOptions{DefaultDelay: 2})
		if err != nil {
			return
		}
		checkNetsByLevel(t, c)
		out := BenchString(c)
		c2, err := ParseBenchString(out, BenchOptions{DefaultDelay: 9})
		if err != nil {
			t.Fatalf("round trip failed: %v\ninput:\n%s\nemitted:\n%s", err, src, out)
		}
		if c2.NumGates() != c.NumGates() || c2.NumNets() != c.NumNets() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				c.NumGates(), c.NumNets(), c2.NumGates(), c2.NumNets())
		}
	})
}
