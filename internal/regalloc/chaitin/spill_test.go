package chaitin_test

// White-box-ish tests for GRA's spill shapes: loads before uses, stores
// after definitions, fresh temporaries per reference site.

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/regalloc/chaitin"
)

// pressureFn builds straight-line code where five values are live at once,
// forcing spills at k=3.
func pressureFn(t *testing.T) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction(`func f params=0 locals=0
	loadI 1 => r1
	loadI 2 => r2
	loadI 3 => r3
	loadI 4 => r4
	loadI 5 => r5
	add r1, r2 => r6
	add r3, r4 => r7
	add r5, r6 => r8
	add r7, r8 => r9
	add r1, r9 => r9
	add r2, r9 => r9
	add r3, r9 => r9
	add r4, r9 => r9
	add r5, r9 => r9
	print r9
	ret
end
`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSpillShapes(t *testing.T) {
	f := pressureFn(t)
	if err := chaitin.Allocate(f, 3, chaitin.Options{}); err != nil {
		t.Fatal(err)
	}
	text := f.String()
	loads := strings.Count(text, "lds ")
	stores := strings.Count(text, "sts ")
	if loads == 0 || stores == 0 {
		t.Fatalf("k=3 must spill:\n%s", text)
	}
	// Spill-everywhere: a spilled value is stored once per definition and
	// loaded once per use; with five single-def values the store count is
	// bounded by the spilled-def count.
	if f.SpillSlots == 0 {
		t.Error("no spill slots reserved")
	}
	// Every sts is preceded (immediately or soon) by the def of its
	// source: structurally, each sts source register must be 1..3.
	for _, in := range f.Instrs {
		if in.Op == ir.OpStSpill && (in.Src1 < 1 || in.Src1 > 3) {
			t.Errorf("store from non-physical register: %s", in)
		}
	}
}

func TestSpillSlotsStablePerOrigin(t *testing.T) {
	f := pressureFn(t)
	if err := chaitin.Allocate(f, 3, chaitin.Options{}); err != nil {
		t.Fatal(err)
	}
	// Slot indices must all be within the reserved range.
	for _, in := range f.Instrs {
		if in.Op == ir.OpLdSpill || in.Op == ir.OpStSpill {
			if in.Imm < 0 || in.Imm >= int64(f.SpillSlots) {
				t.Errorf("slot %d outside [0,%d)", in.Imm, f.SpillSlots)
			}
		}
	}
}
