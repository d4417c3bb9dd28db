package cfg_test

import (
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
)

func mustParse(t *testing.T, body string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction("func f params=0 locals=0\n" + body + "\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func build(t *testing.T, body string) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(mustParse(t, body))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// diamond is the classic if/else shape:
//
//	B0: entry + cbr
//	B1: then, B2: else, B3: join
const diamond = `
	loadI 1 => r1
	cbr r1 -> LT, LF
LT:
	loadI 2 => r2
	jump -> LEnd
LF:
	loadI 3 => r2
LEnd:
	print r2
	ret`

func TestBlocksAndEdges(t *testing.T) {
	g := build(t, diamond)
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(g.Blocks))
	}
	b0 := g.Blocks[0]
	if len(b0.Succs) != 2 {
		t.Errorf("entry should have 2 successors, got %v", b0.Succs)
	}
	join := g.Blocks[3]
	if len(join.Preds) != 2 {
		t.Errorf("join should have 2 predecessors, got %v", join.Preds)
	}
	// Instruction-level successors: the cbr reaches both labels, the
	// ret nothing, and the join's label follows the jump and the else arm.
	if s := g.Succs(nil, 1); !slices.Equal(s, []int{2, 5}) {
		t.Errorf("cbr succs = %v", s)
	}
	last := len(g.F.Instrs) - 1
	if s := g.Succs(nil, last); len(s) != 0 {
		t.Errorf("ret succs = %v", s)
	}
	if p := g.Preds(nil, 7); !slices.Equal(p, []int{4, 6}) {
		t.Errorf("join preds = %v", p)
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	g := build(t, diamond)
	ipdom := g.PostDominators()
	// The join postdominates the arms and the entry.
	if ipdom[1] != 3 || ipdom[2] != 3 {
		t.Errorf("arms should be ipostdominated by join: %v", ipdom)
	}
	if ipdom[0] != 3 {
		t.Errorf("entry should be ipostdominated by join, got %d", ipdom[0])
	}
	// The join's postdominator is the virtual exit.
	if ipdom[3] != len(g.Blocks) {
		t.Errorf("join should be ipostdominated by the virtual exit, got %d", ipdom[3])
	}
}

const loop = `
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
	ret`

func TestLoopCFG(t *testing.T) {
	g := build(t, loop)
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(g.Blocks))
	}
	head := g.Blocks[1]
	if len(head.Preds) != 2 {
		t.Errorf("loop head should have 2 preds (entry + backedge), got %v", head.Preds)
	}
	if !slices.Equal(head.Succs, []int{2, 3}) {
		t.Errorf("loop head should branch to body and exit, got %v", head.Succs)
	}
	ipdom := g.PostDominators()
	if ipdom[2] != 1 {
		t.Errorf("head should postdominate body, got %d", ipdom[2])
	}
}

func TestUnknownLabel(t *testing.T) {
	if _, err := cfg.Build(mustParse(t, "jump -> nowhere\nret")); err == nil {
		t.Error("expected error for unknown label")
	}
}

func TestInfiniteLoopPostDominators(t *testing.T) {
	// A CFG with no exit still gets a well-formed postdominator tree via
	// the virtual exit attachment.
	g := build(t, `
LHead:
	loadI 1 => r1
	cbr r1 -> LHead, LB
LB:
	jump -> LHead`)
	ipdom := g.PostDominators()
	for b := range g.Blocks {
		if ipdom[b] == -1 && len(g.Blocks[b].Preds) > 0 {
			t.Errorf("reachable block %d has no ipostdominator", b)
		}
	}
}

func TestReversePostorderStartsAtEntry(t *testing.T) {
	g := build(t, diamond)
	rpo := g.ReversePostorder()
	if rpo[0] != 0 {
		t.Errorf("RPO should start at entry, got %v", rpo)
	}
	if len(rpo) != len(g.Blocks) {
		t.Errorf("RPO covers %d blocks, want %d", len(rpo), len(g.Blocks))
	}
}
