package rap

// White-box tests that reproduce the paper's worked examples (Figures 3
// and 7) against RAP's internals.

import (
	"testing"

	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/regalloc"
)

// figure3Function builds the paper's Figure 3 example with hand-assigned
// virtual registers and regions:
//
//	S1: a = b          \
//	S2: c = a + c       | parent region (R1) own code
//	if (P) ...         /
//	  S3: a = b + 1    — subregion R2 (then)
//	else
//	  S4: e = 10       \
//	  S5: a = e         | subregion R3 (else)
//	  S6: a = a + b    /
//	...d used later... (d live through the region, referenced outside)
//
// Registers: a=r1 b=r2 c=r3 d=r4 e=r5 p=r6.
func figure3Function() *ir.Function {
	const (
		a = ir.Reg(1)
		b = ir.Reg(2)
		c = ir.Reg(3)
		d = ir.Reg(4)
		e = ir.Reg(5)
		p = ir.Reg(6)
	)
	entry := &ir.Region{ID: 0, Kind: ir.RegionEntry}
	ifR := &ir.Region{ID: 1, Kind: ir.RegionStmt, Parent: entry}
	thenR := &ir.Region{ID: 2, Kind: ir.RegionThen, Parent: ifR}
	elseR := &ir.Region{ID: 3, Kind: ir.RegionElse, Parent: ifR}
	entry.Children = []*ir.Region{ifR}
	ifR.Children = []*ir.Region{thenR, elseR}

	mk := func(region int, in ir.Instr) *ir.Instr {
		in.Region = region
		return &in
	}
	f := &ir.Function{
		Name:    "fig3",
		NextReg: 10,
		Instrs: []*ir.Instr{
			// Entry: define b, c, d, p.
			mk(0, ir.Instr{Op: ir.OpLoadI, Imm: 7, Dst: b}),
			mk(0, ir.Instr{Op: ir.OpLoadI, Imm: 3, Dst: c}),
			mk(0, ir.Instr{Op: ir.OpLoadI, Imm: 99, Dst: d}),
			mk(0, ir.Instr{Op: ir.OpLoadI, Imm: 1, Dst: p}),
			// Region 1 own code: S1, S2, the branch, the join label.
			mk(1, ir.Instr{Op: ir.OpI2I, Src1: b, Dst: a}),          // S1: a = b
			mk(1, ir.Instr{Op: ir.OpAdd, Src1: a, Src2: c, Dst: c}), // S2: c = a + c
			mk(1, ir.Instr{Op: ir.OpCBr, Src1: p, Label: "Lthen", Label2: "Lelse"}),
			// Then (region 2): S3: a = b + 1. After this, b is dead on
			// the then path — a and b do not interfere inside R2, yet
			// both are global, so they must get distinct colours.
			mk(2, ir.Instr{Op: ir.OpLabel, Label: "Lthen"}),
			mk(2, ir.Instr{Op: ir.OpLoadI, Imm: 1, Dst: 7}),
			mk(2, ir.Instr{Op: ir.OpAdd, Src1: b, Src2: 7, Dst: a}), // S3
			mk(1, ir.Instr{Op: ir.OpJump, Label: "Lend"}),
			// Else (region 3): S4, S5, S6. e is completely local.
			mk(3, ir.Instr{Op: ir.OpLabel, Label: "Lelse"}),
			mk(3, ir.Instr{Op: ir.OpLoadI, Imm: 10, Dst: e}),        // S4: e = 10
			mk(3, ir.Instr{Op: ir.OpI2I, Src1: e, Dst: a}),          // S5: a = e
			mk(3, ir.Instr{Op: ir.OpAdd, Src1: a, Src2: b, Dst: a}), // S6: a = a + b
			mk(1, ir.Instr{Op: ir.OpLabel, Label: "Lend"}),
			// After the region: a, c, d are used.
			mk(0, ir.Instr{Op: ir.OpAdd, Src1: a, Src2: c, Dst: 8}),
			mk(0, ir.Instr{Op: ir.OpAdd, Src1: 8, Src2: d, Dst: 9}),
			mk(0, ir.Instr{Op: ir.OpPrint, Src1: 9}),
			mk(0, ir.Instr{Op: ir.OpRet}),
		},
		Regions:    entry,
		NumRegions: 4,
	}
	return f
}

func newTestAllocator(t *testing.T, f *ir.Function, k int) *allocator {
	t.Helper()
	if err := f.CheckRegions(); err != nil {
		t.Fatal(err)
	}
	a := &allocator{
		f:         f,
		k:         k,
		sp:        regalloc.NewSpiller(f),
		graphs:    map[int]*ig.Graph{},
		spilledIn: map[int]map[ir.Reg]bool{},
	}
	if err := a.reanalyze(); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestFigure3InterferenceGraphs replays §3.1.1's example.
func TestFigure3InterferenceGraphs(t *testing.T) {
	const (
		a = ir.Reg(1)
		b = ir.Reg(2)
		c = ir.Reg(3)
		d = ir.Reg(4)
		e = ir.Reg(5)
	)
	f := figure3Function()
	al := newTestAllocator(t, f, 3)

	entry := f.Regions
	ifR := entry.Children[0]
	thenR, elseR := ifR.Children[0], ifR.Children[1]

	// Allocate the subregions.
	if err := al.allocateRegion(thenR); err != nil {
		t.Fatal(err)
	}
	if err := al.allocateRegion(elseR); err != nil {
		t.Fatal(err)
	}

	// Fig. 3(a): in the then graph, a and b are NOT combined even though
	// they do not interfere inside the subregion, "because there are
	// uses of both a and b outside of the subregion".
	gThen := al.graphs[thenR.ID]
	if gThen.NodeOf(a) == nil || gThen.NodeOf(b) == nil {
		t.Fatalf("then graph missing a or b:\n%s", gThen)
	}
	if gThen.NodeOf(a) == gThen.NodeOf(b) {
		t.Errorf("a and b were combined in the then region despite both being global:\n%s", gThen)
	}

	// Fig. 3(b): in the else graph, e and a ARE combined ("contains a
	// single node for virtual registers a and e because the coloring
	// routine colored these two virtual registers the same color").
	gElse := al.graphs[elseR.ID]
	if gElse.NodeOf(a) == nil || gElse.NodeOf(e) == nil {
		t.Fatalf("else graph missing a or e:\n%s", gElse)
	}
	if gElse.NodeOf(a) != gElse.NodeOf(e) {
		t.Errorf("a and e should be combined in the else region:\n%s", gElse)
	}

	// Fig. 3(c): the parent's own-conflict graph has nodes for a, b, c
	// but no node for d, "although d interferes with each node".
	gv := al.buildRegionGraph(ifR)
	for _, r := range []ir.Reg{a, b, c} {
		if gv.NodeOf(r) == nil {
			t.Errorf("region graph missing %s:\n%s", r, gv)
		}
	}
	if gv.NodeOf(d) != nil {
		t.Errorf("d is not referenced in the region and must not have a node:\n%s", gv)
	}
	// a and c interfere (simultaneously live in the parent).
	if !gv.Interferes(a, c) {
		t.Errorf("a and c should interfere:\n%s", gv)
	}
	// Fig. 3(d): the node for {a,e} from the else graph merges with the
	// parent's a node.
	if n := gv.NodeOf(a); !n.Has(e) {
		t.Errorf("a's node should contain e after subregion incorporation:\n%s", gv)
	}

	// Finish the hierarchy: at the entry region d is referenced, and the
	// Fig. 4 rule gives it conflicts with everything referenced in the
	// if region (it is live on entrance to that subregion).
	if err := al.allocateRegion(ifR); err != nil {
		t.Fatal(err)
	}
	gTop := al.buildRegionGraph(entry)
	if gTop.NodeOf(d) == nil {
		t.Fatalf("entry graph must contain d:\n%s", gTop)
	}
	for _, r := range []ir.Reg{a, b, c, e} {
		if !gTop.Interferes(d, r) && gTop.NodeOf(d) != gTop.NodeOf(r) {
			t.Errorf("d should interfere with %s at the entry level:\n%s", r, gTop)
		}
	}
}

// TestCombinedGraphsBounded: every interior region summary has at most k
// nodes (§3.1.5: "the final interference graph contains at most k nodes").
func TestCombinedGraphsBounded(t *testing.T) {
	f := figure3Function()
	al := newTestAllocator(t, f, 3)
	if err := al.allocateRegion(f.Regions); err != nil {
		t.Fatal(err)
	}
	f.Regions.Walk(func(r *ir.Region) {
		if r.Parent == nil {
			return // entry keeps the full graph
		}
		if g := al.graphs[r.ID]; g != nil && g.NumNodes() > 3 {
			t.Errorf("region %d summary has %d nodes, want <= 3", r.ID, g.NumNodes())
		}
	})
}

// TestFigure3EndToEnd: the hand-built function must allocate and run
// correctly at every k.
func TestFigure3EndToEnd(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		f := figure3Function()
		if err := Allocate(f, k, Options{}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := regalloc.CheckPhysical(f); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}
