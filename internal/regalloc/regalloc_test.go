package regalloc_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/regalloc"
)

func parseFn(t *testing.T, body string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction("func f params=0 locals=0\n" + body + "\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBuildInterferenceBasics(t *testing.T) {
	f := parseFn(t, `
	loadI 1 => r1
	loadI 2 => r2
	add r1, r2 => r3
	print r1
	print r3
	ret`)
	g, err := cfg.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	lv := dataflow.ComputeLiveness(g)
	graph := ig.New()
	regalloc.BuildInterference(graph, f, g, lv)
	// r1 and r2 simultaneously live; r3 defined while r1 still live.
	if !graph.Interferes(1, 2) {
		t.Error("r1-r2 edge missing")
	}
	if !graph.Interferes(1, 3) {
		t.Error("r1-r3 edge missing")
	}
	// r2 dies at the add, so no r2-r3 edge.
	if graph.Interferes(2, 3) {
		t.Error("phantom r2-r3 edge")
	}
}

func TestCopyRule(t *testing.T) {
	// i2i r1 => r2 with r1 live after: Chaitin's rule omits the r1-r2
	// edge so the copy can collapse.
	f := parseFn(t, `
	loadI 1 => r1
	i2i r1 => r2
	print r1
	print r2
	ret`)
	g, _ := cfg.Build(f)
	lv := dataflow.ComputeLiveness(g)
	graph := ig.New()
	regalloc.BuildInterference(graph, f, g, lv)
	if graph.Interferes(1, 2) {
		t.Error("copy source and destination should not interfere")
	}
}

func TestSpiller(t *testing.T) {
	f := parseFn(t, "ret")
	sp := regalloc.NewSpiller(f)
	s1 := sp.SlotOf(5)
	if sp.SlotOf(5) != s1 {
		t.Error("slot not stable")
	}
	temp := sp.NewTemp(5)
	if !sp.IsTemp(temp) || sp.IsTemp(5) {
		t.Error("temp classification wrong")
	}
	if sp.Origin(temp) != 5 {
		t.Error("temp origin wrong")
	}
	if sp.SlotOf(temp) != s1 {
		t.Error("temp must share its origin's slot")
	}
	// Rename chains keep the original origin.
	sp.Rename(temp, 40)
	if sp.Origin(40) != 5 || sp.SlotOf(40) != s1 {
		t.Error("rename chain broken")
	}
	s2 := sp.SlotOf(6)
	if s2 == s1 {
		t.Error("distinct origins must get distinct slots")
	}
	if f.SpillSlots != 2 {
		t.Errorf("SpillSlots = %d, want 2", f.SpillSlots)
	}
}

func TestEditApply(t *testing.T) {
	f := parseFn(t, `
	loadI 1 => r1
	loadI 2 => r2
	ret r1`)
	e := regalloc.NewEdit()
	e.InsertBefore(1, &ir.Instr{Op: ir.OpLoadI, Imm: 10, Dst: 3})
	e.InsertAfter(1, &ir.Instr{Op: ir.OpLoadI, Imm: 20, Dst: 4})
	e.Delete[0] = true
	e.Apply(f)
	want := []string{"loadI 10 => r3", "loadI 2 => r2", "loadI 20 => r4", "ret r1"}
	if len(f.Instrs) != len(want) {
		t.Fatalf("got %d instrs", len(f.Instrs))
	}
	for i, w := range want {
		if f.Instrs[i].String() != w {
			t.Errorf("instr %d = %s, want %s", i, f.Instrs[i], w)
		}
	}
}

func TestRemoveSelfCopies(t *testing.T) {
	f := parseFn(t, `
	loadI 1 => r1
	i2i r1 => r1
	i2i r1 => r2
	ret r2`)
	n := regalloc.RemoveSelfCopies(f)
	if n != 1 || len(f.Instrs) != 3 {
		t.Errorf("removed %d, %d instrs left", n, len(f.Instrs))
	}
}

func TestCheckPhysical(t *testing.T) {
	f := parseFn(t, "loadI 1 => r5\nret r5")
	if err := regalloc.CheckPhysical(f); err == nil {
		t.Error("unallocated function should fail")
	}
	f.Allocated = true
	f.K = 3
	if err := regalloc.CheckPhysical(f); err == nil {
		t.Error("r5 with k=3 should fail")
	}
	f.K = 5
	if err := regalloc.CheckPhysical(f); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}
}
