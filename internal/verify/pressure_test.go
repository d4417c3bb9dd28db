package verify

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// TestCheckPressureReportsInOrder: the pressure check counts the
// registers live into each instruction, block by block, and reports the
// instructions that exceed k in program order. checkPressure runs on
// the body directly here: behind Function, the k-bound check has
// already confined every register to [1, k], so no more than k can be
// live.
func TestCheckPressureReportsInOrder(t *testing.T) {
	f, err := ir.ParseFunction(`func f params=0 locals=0
	loadI 1 => r1
	loadI 2 => r2
	loadI 3 => r3
	jump -> L1
L1:
	add r1, r2 => r4
	add r4, r3 => r5
	print r5
	ret
end
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	v := &fnVerifier{orig: f, alloc: f, k: 1}
	v.checkPressure(g)
	want := []string{
		"f: instr 2 (loadI 3 => r3): 2 registers live, k=1",
		"f: instr 3 (jump -> L1): 3 registers live, k=1",
		"f: instr 4 (L1:): 3 registers live, k=1",
		"f: instr 5 (add r1, r2 => r4): 3 registers live, k=1",
		"f: instr 6 (add r4, r3 => r5): 2 registers live, k=1",
	}
	if len(v.errs) != len(want) {
		t.Fatalf("errors %v, want %q", v.errs, want)
	}
	for i, err := range v.errs {
		if err.Error() != want[i] {
			t.Errorf("error %d = %q, want %q", i, err, want[i])
		}
	}
}
