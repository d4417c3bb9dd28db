package ir_test

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/randprog"
)

// mapVRegs is the map-and-sort VRegs the dense table replaced, kept as
// the oracle.
func mapVRegs(f *ir.Function) []ir.Reg {
	seen := map[ir.Reg]bool{}
	var buf []ir.Reg
	for _, in := range f.Instrs {
		buf = in.Uses(buf[:0])
		for _, r := range buf {
			seen[r] = true
		}
		if d := in.Def(); d != ir.None {
			seen[d] = true
		}
	}
	out := make([]ir.Reg, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestVRegsMatchesMap: VRegs equals the map-and-sort oracle on randprog
// functions before and after allocation, and on hand-written IR that
// names registers at and past NextReg or leaves an operand empty.
func TestVRegsMatchesMap(t *testing.T) {
	var funcs []*ir.Function
	for seed := int64(1); seed <= 6; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		for _, a := range []core.Allocator{core.AllocNone, core.AllocGRA, core.AllocRAP, core.AllocIRC} {
			p, err := core.Compile(src, core.Config{Allocator: a, K: 5})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, a, err)
			}
			funcs = append(funcs, p.Funcs...)
		}
	}
	past, err := ir.ParseFunction("func f params=0 locals=0\nloadI 1 => r40\nadd r40, r7 => r3\nprint r3\nret r40\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	past.NextReg = 4 // r7 and r40 lie past NextReg
	empty := &ir.Function{Name: "g", NextReg: 2, Instrs: []*ir.Instr{
		{Op: ir.OpAdd, Dst: 9, Src1: 1}, // Src2 is ir.None
		{Op: ir.OpRet},
	}}
	funcs = append(funcs, past, empty, &ir.Function{Name: "h"})
	for _, f := range funcs {
		if got, want := f.VRegs(), mapVRegs(f); !slices.Equal(got, want) {
			t.Fatalf("%s: VRegs = %v, want %v", f.Name, got, want)
		}
	}
}
