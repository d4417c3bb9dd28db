package cfg_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/testutil"
)

// rebuildPairs returns (A, B) function pairs where B is both larger
// and smaller than A in instructions, registers and blocks.
func rebuildPairs(t *testing.T) [][2]*ir.Function {
	t.Helper()
	pairs, err := testutil.SizeExtremePairs(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// TestRebuildMatchesBuild: rebuilding into the storage of function A's
// graph for another function B gives exactly the graph Build(B) gives.
func TestRebuildMatchesBuild(t *testing.T) {
	var grew, shrank [3]bool // instructions, registers, blocks
	for _, p := range rebuildPairs(t) {
		a, b := p[0], p[1]
		g, err := cfg.Build(a)
		if err != nil {
			t.Fatal(err)
		}
		ga := len(g.Blocks)
		if g, err = cfg.Rebuild(g, b); err != nil {
			t.Fatal(err)
		}
		want, err := cfg.Build(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := testutil.SameCFG(g, want); err != nil {
			t.Fatalf("%s into %s: %v", b.Name, a.Name, err)
		}
		for i, d := range [3]int{
			len(b.Instrs) - len(a.Instrs), int(b.NextReg - a.NextReg), len(want.Blocks) - ga,
		} {
			grew[i] = grew[i] || d > 0
			shrank[i] = shrank[i] || d < 0
		}
	}
	for i, dim := range []string{"instructions", "registers", "blocks"} {
		if !grew[i] || !shrank[i] {
			t.Errorf("pairs do not cover B both larger and smaller than A in %s", dim)
		}
	}
}

// TestRebuildInPlaceAllocatesNothing: once a graph has held a function,
// rebuilding it for the same function reuses every array.
func TestRebuildInPlaceAllocatesNothing(t *testing.T) {
	f := rebuildPairs(t)[0][1]
	g, err := cfg.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := cfg.Rebuild(g, f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Rebuild of an unchanged function allocated %v times", n)
	}
}

// TestRebuildUnknownLabel: a rebuild reports a bad branch target with
// Build's error text.
func TestRebuildUnknownLabel(t *testing.T) {
	g := build(t, diamond)
	_, err := cfg.Rebuild(g, mustParse(t, "jump -> nowhere\nret"))
	if err == nil || err.Error() != `f: jump to unknown label "nowhere"` {
		t.Errorf("err = %v", err)
	}
}
