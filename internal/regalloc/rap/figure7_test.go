package rap

// Figure 7 of the paper: with pdgcc's one-region-per-statement PDG, a
// variable spilled in an enclosing region gets a boundary load in *every*
// statement subregion that uses it; if the statements shared one region,
// a single load before the first use would do. This test drives
// insertSpillCode directly on both shapes and counts the loads inserted
// for the spilled register.

import (
	"testing"

	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/regalloc"
)

// figure7Function builds
//
//	S1: a = ...        (parent region own code)
//	S2: ... = a        (subregion; own region when split=true)
//	S3: ... = a        (subregion; same region as S2 when split=false)
//
// with a = r1.
func figure7Function(split bool) *ir.Function {
	const a = ir.Reg(1)
	entry := &ir.Region{ID: 0, Kind: ir.RegionEntry}
	r2 := &ir.Region{ID: 1, Kind: ir.RegionStmt, Parent: entry}
	entry.Children = []*ir.Region{r2}
	s3Region := 1
	if split {
		r3 := &ir.Region{ID: 2, Kind: ir.RegionStmt, Parent: entry}
		entry.Children = append(entry.Children, r3)
		s3Region = 2
	}
	mk := func(region int, in ir.Instr) *ir.Instr {
		in.Region = region
		return &in
	}
	return &ir.Function{
		Name:    "fig7",
		NextReg: 10,
		Instrs: []*ir.Instr{
			mk(0, ir.Instr{Op: ir.OpLoadI, Imm: 5, Dst: a}),         // S1: a = ...
			mk(1, ir.Instr{Op: ir.OpAdd, Src1: a, Src2: a, Dst: 2}), // S2: ... = a
			mk(1, ir.Instr{Op: ir.OpPrint, Src1: 2}),
			mk(s3Region, ir.Instr{Op: ir.OpMult, Src1: a, Src2: a, Dst: 3}), // S3: ... = a
			mk(s3Region, ir.Instr{Op: ir.OpPrint, Src1: 3}),
			mk(0, ir.Instr{Op: ir.OpRet}),
		},
		Regions:    entry,
		NumRegions: map[bool]int{true: 3, false: 2}[split],
	}
}

// spillLoadsForA spills a (r1) at the entry region and counts the
// resulting spill loads.
func spillLoadsForA(t *testing.T, split bool) int {
	t.Helper()
	f := figure7Function(split)
	al := newTestAllocator(t, f, 3)
	// Allocate the subregions first, as the bottom-up pass would.
	for _, c := range f.Regions.Children {
		if err := al.allocateRegion(c); err != nil {
			t.Fatal(err)
		}
	}
	// Force the spill of a at the entry region.
	node := &ig.Node{Regs: []ir.Reg{1}}
	if err := al.insertSpillCode(f.Regions, []*ig.Node{node}); err != nil {
		t.Fatal(err)
	}
	loads := 0
	for _, in := range f.Instrs {
		if in.Op == ir.OpLdSpill {
			loads++
		}
	}
	if err := f.CheckRegions(); err != nil {
		t.Fatal(err)
	}
	return loads
}

func TestFigure7SmallRegions(t *testing.T) {
	fine := spillLoadsForA(t, true)
	merged := spillLoadsForA(t, false)
	// Per-statement regions: one boundary load per subregion that uses a
	// (two). Shared region: a single load before the first use.
	if fine != 2 {
		t.Errorf("split regions inserted %d loads for a, want 2 (one per subregion)", fine)
	}
	if merged != 1 {
		t.Errorf("merged region inserted %d loads for a, want 1 (before the first use)", merged)
	}
}

// TestSpillCleanupNeverHurts: the paper notes that although small regions
// can add excess spill code, the cleanup phases may eliminate some of it
// — so the full pipeline must never execute more cycles than phase 1
// alone on the benchmark-style pressure kernel below.
func TestSpillCleanupNeverHurts(t *testing.T) {
	f := figure3Function()
	run := func(opts Options) *ir.Function {
		cp := f.Clone()
		if err := Allocate(cp, 3, opts); err != nil {
			t.Fatal(err)
		}
		if err := regalloc.CheckPhysical(cp); err != nil {
			t.Fatal(err)
		}
		return cp
	}
	full := run(Options{})
	phase1 := run(Options{DisableSpillMotion: true, DisablePeephole: true})
	if len(full.Instrs) > len(phase1.Instrs) {
		t.Errorf("full pipeline emitted %d instructions, phase 1 alone %d", len(full.Instrs), len(phase1.Instrs))
	}
}
