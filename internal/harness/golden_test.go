package harness

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_artefacts.txt from the current engine")

const goldenArtefactsFile = "testdata/golden_artefacts.txt"

// renderArtefacts renders the Example-2 trace, the 8-bit carry-skip
// experiment and the c1908 anecdote exactly as cmd/figures prints
// them, with every CPU field zeroed so that the text is deterministic.
func renderArtefacts() []byte {
	var b bytes.Buffer
	RenderExample2(&b, Example2())
	for _, step := range Example2Propagation() {
		b.WriteString("    " + step + "\n")
	}
	ex := CarrySkip(8, 4, 100000)
	ex.CPU = 0
	RenderCarrySkip(&b, ex)
	an := Anecdote()
	an.CPU = 0
	RenderAnecdote(&b, an)
	return b.Bytes()
}

// TestGoldenArtefacts pins the rendered figure artefacts byte for
// byte: verdicts, witnesses, backtrack counts, narrowed domains and
// dominator chains. Regenerate with -update-golden only for a change
// that is meant to move them.
func TestGoldenArtefacts(t *testing.T) {
	got := renderArtefacts()
	if *updateGolden {
		if err := os.WriteFile(goldenArtefactsFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenArtefactsFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rendered artefacts changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
