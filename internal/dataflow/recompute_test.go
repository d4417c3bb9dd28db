package dataflow_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/testutil"
)

// recomputePairs returns (A, B) function pairs where B is both larger
// and smaller than A in instructions, registers and blocks.
func recomputePairs(t *testing.T) [][2]*ir.Function {
	t.Helper()
	pairs, err := testutil.SizeExtremePairs(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func mustBuild(t *testing.T, f *ir.Function) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRecomputeMatchesCompute: recomputing liveness and def-use tables
// into the storage of function A's analysis for another function B gives
// exactly what a fresh computation for B gives (B's graph itself rebuilt
// into A's).
func TestRecomputeMatchesCompute(t *testing.T) {
	var grew, shrank [3]bool // instructions, registers, blocks
	for _, p := range recomputePairs(t) {
		a, b := p[0], p[1]
		ga := mustBuild(t, a)
		blocksA := len(ga.Blocks)
		lv := dataflow.ComputeLiveness(ga)
		du := dataflow.ComputeDefUse(ga)
		// Query A's tables first, so B's walk state starts dirty.
		for r := ir.Reg(0); int(r) < du.NumRegs; r++ {
			for _, d := range du.Defs(r) {
				du.ReachedUses([]int{d}, r, nil)
			}
		}
		gb, err := cfg.Rebuild(ga, b)
		if err != nil {
			t.Fatal(err)
		}
		lv = dataflow.RecomputeLiveness(lv, gb)
		du = dataflow.RecomputeDefUse(du, gb)
		fresh := mustBuild(t, b)
		if err := testutil.SameLiveness(lv, dataflow.ComputeLiveness(fresh)); err != nil {
			t.Fatalf("%s into %s: %v", b.Name, a.Name, err)
		}
		if err := testutil.SameDefUse(du, dataflow.ComputeDefUse(fresh), nil); err != nil {
			t.Fatalf("%s into %s: %v", b.Name, a.Name, err)
		}
		for i, d := range [3]int{
			len(b.Instrs) - len(a.Instrs), int(b.NextReg - a.NextReg), len(fresh.Blocks) - blocksA,
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
