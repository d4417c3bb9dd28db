package dataflow_test

import (
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

func analyze(t *testing.T, body string) (*cfg.Graph, *dataflow.Liveness, *dataflow.DefUse) {
	t.Helper()
	f, err := ir.ParseFunction("func f params=0 locals=0\n" + body + "\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	return g, dataflow.ComputeLiveness(g), dataflow.ComputeDefUse(g)
}

func TestLivenessStraightLine(t *testing.T) {
	_, lv, _ := analyze(t, `
	loadI 1 => r1
	loadI 2 => r2
	add r1, r2 => r3
	print r3
	ret`)
	// r1 live after its def until the add.
	if !lv.LiveOut[0].Has(1) || !lv.LiveIn[2].Has(1) {
		t.Error("r1 liveness wrong")
	}
	// r1 dead after the add.
	if lv.LiveOut[2].Has(1) {
		t.Error("r1 should die at the add")
	}
	// r3 live between add and print only.
	if !lv.LiveOut[2].Has(3) || lv.LiveOut[3].Has(3) {
		t.Error("r3 liveness wrong")
	}
	// Nothing live at function start.
	if !lv.LiveIn[0].Empty() {
		t.Errorf("function entry should have no live-ins: %v", lv.LiveIn[0].Elems())
	}
}

func TestLivenessAcrossLoop(t *testing.T) {
	_, lv, _ := analyze(t, `
	loadI 0 => r1
	loadI 100 => r9
LHead:
	cmpLT r1, r9 => r2
	cbr r2 -> LBody, LEnd
LBody:
	loadI 1 => r3
	add r1, r3 => r1
	jump -> LHead
LEnd:
	print r1
	ret`)
	// r9 (the bound) is live around the back edge: live at the jump.
	jumpIdx := 8
	if !lv.LiveIn[jumpIdx].Has(9) {
		t.Errorf("loop-invariant bound should be live at the back edge")
	}
	// r1 live everywhere in the loop.
	if !lv.LiveIn[jumpIdx].Has(1) {
		t.Error("r1 should be live at the back edge")
	}
	// r2 (the comparison) is dead in the body.
	if lv.LiveOut[jumpIdx].Has(2) {
		t.Error("r2 should not be live out of the body")
	}
}

func TestLivenessBranches(t *testing.T) {
	_, lv, _ := analyze(t, `
	loadI 1 => r1
	loadI 2 => r2
	cbr r1 -> LA, LB
LA:
	print r2
	jump -> LEnd
LB:
	loadI 3 => r3
	print r3
LEnd:
	ret`)
	// r2 is live into the branch (used on the A path) but not on B after
	// its own start.
	if !lv.LiveIn[2].Has(2) {
		t.Error("r2 should be live at the cbr")
	}
	// On the B path, r2 dies.
	lbIdx := 6 // label LB
	if lv.LiveIn[lbIdx].Has(2) {
		t.Error("r2 should be dead on the else path")
	}
}

func TestDefUseChains(t *testing.T) {
	_, _, du := analyze(t, `
	loadI 1 => r1
	print r1
	loadI 2 => r1
	print r1
	ret`)
	if len(du.Defs(1)) != 2 || len(du.Uses(1)) != 2 {
		t.Fatalf("defs/uses counts wrong: %v / %v", du.Defs(1), du.Uses(1))
	}
	// First def reaches only the first use (killed by the redefinition).
	r0 := du.ReachedUses([]int{0}, 1, nil)
	if len(r0) != 1 || r0[0] != 1 {
		t.Errorf("def@0 reached %v, want [1]", r0)
	}
	r2 := du.ReachedUses([]int{2}, 1, nil)
	if len(r2) != 1 || r2[0] != 3 {
		t.Errorf("def@2 reached %v, want [3]", r2)
	}
}

func TestDefUseThroughBranch(t *testing.T) {
	_, _, du := analyze(t, `
	loadI 1 => r1
	cbr r1 -> LA, LB
LA:
	loadI 5 => r2
	jump -> LEnd
LB:
	loadI 6 => r2
LEnd:
	print r2
	ret`)
	// Both defs of r2 reach the print (labels occupy indices 2, 5, 7).
	printIdx := 8
	for _, d := range []int{3, 6} {
		found := false
		for _, u := range du.ReachedUses([]int{d}, 2, nil) {
			if u == printIdx {
				found = true
			}
		}
		if !found {
			t.Errorf("def@%d should reach print@%d", d, printIdx)
		}
	}
}

func TestDefUseLoopCarried(t *testing.T) {
	_, _, du := analyze(t, `
	loadI 0 => r1
LHead:
	loadI 10 => r2
	cmpLT r1, r2 => r3
	cbr r3 -> LBody, LEnd
LBody:
	loadI 1 => r4
	add r1, r4 => r1
	jump -> LHead
LEnd:
	print r1
	ret`)
	// The add's def of r1 reaches the cmp (next iteration) and the print.
	addIdx := 7
	reached := du.ReachedUses([]int{addIdx}, 1, nil)
	wantCmp, wantPrint := false, false
	for _, u := range reached {
		if u == 3 {
			wantCmp = true
		}
		if u == 10 {
			wantPrint = true
		}
	}
	if !wantCmp || !wantPrint {
		t.Errorf("loop-carried def reached %v, want cmp@3 and print@10", reached)
	}
	// Asking again walks again and must see the print outside the loop.
	if !slices.Contains(du.ReachedUses([]int{addIdx}, 1, nil), 10) {
		t.Error("a repeated ReachedUses query should still see the print")
	}
}

func TestUseAndDefSameInstr(t *testing.T) {
	_, lv, du := analyze(t, `
	loadI 3 => r1
	add r1, r1 => r1
	print r1
	ret`)
	// The add both uses and defines r1; the use is of the first def.
	if got := du.ReachedUses([]int{0}, 1, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("def@0 reached %v, want [1] (the add)", got)
	}
	if got := du.ReachedUses([]int{1}, 1, nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("def@1 reached %v, want [2] (the print)", got)
	}
	if !lv.LiveIn[1].Has(1) || !lv.LiveOut[1].Has(1) {
		t.Error("r1 should be live into and out of the add")
	}
}
