package rap_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/regalloc/rap"
	"repro/internal/testutil"
)

// TestAllocateWithStats: the per-phase statistics reflect what actually
// happened to the code.
func TestAllocateWithStats(t *testing.T) {
	p, err := testutil.Compile(programs["spill_in_loop"], lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := p.Func("main")
	st, err := rap.AllocateWithStats(f, 3, rap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RegsSpilled == 0 || st.SpillRounds == 0 {
		t.Errorf("pressure kernel at k=3 must spill: %+v", st)
	}
	if f.SpillSlots == 0 {
		t.Error("spill slots not reserved")
	}
	// Static spill code must exist in the output.
	spillOps := 0
	for _, in := range f.Instrs {
		if in.Op == ir.OpLdSpill || in.Op == ir.OpStSpill {
			spillOps++
		}
	}
	if spillOps == 0 {
		t.Error("no spill instructions despite reported spills")
	}
}

func TestAllocateWithStatsNoPressure(t *testing.T) {
	p, err := testutil.Compile(`int main() { int a = 1; print(a); return 0; }`, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rap.AllocateWithStats(p.Func("main"), 8, rap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RegsSpilled != 0 || st.SpillRounds != 0 || st.Hoists != 0 {
		t.Errorf("no pressure should mean no spills: %+v", st)
	}
}
