package cfg_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/randprog"
	"repro/internal/testutil"
)

// TestEdgesMatchReference: on randprog functions before allocation and
// after GRA, RAP and IRC, every instruction's block-derived successors
// and predecessors equal those testutil.ReferenceEdges finds from the
// branch targets and labels, and the operand table holds each
// instruction's uses, each register once in operand order, and its
// definition. Allocated code carries spill loads and stores, and RAP's
// carries the copies and labels its spill motion inserts.
func TestEdgesMatchReference(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	funcs := 0
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 5, MaxDepth: 2, Floats: seed%2 == 0})
		for _, a := range []core.Allocator{core.AllocNone, core.AllocGRA, core.AllocRAP, core.AllocIRC} {
			p, err := core.Compile(src, core.Config{Allocator: a, K: 3})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, a, err)
			}
			for _, f := range p.Funcs {
				if err := sameEdges(f); err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, a, f.Name, err)
				}
				funcs++
			}
		}
	}
	t.Logf("%d functions checked", funcs)
}

func sameEdges(f *ir.Function) error {
	g, err := cfg.Build(f)
	if err != nil {
		return err
	}
	succs, preds, err := testutil.ReferenceEdges(f)
	if err != nil {
		return err
	}
	dst := []int{-1} // Succs and Preds append
	for i, in := range f.Instrs {
		if got := g.Succs(dst, i)[1:]; !slices.Equal(got, succs[i]) {
			return fmt.Errorf("Succs(%d) = %v, want %v", i, got, succs[i])
		}
		if got := g.Preds(dst, i)[1:]; !slices.Equal(got, preds[i]) {
			return fmt.Errorf("Preds(%d) = %v, want %v", i, got, preds[i])
		}
		var uses []ir.Reg
		for _, u := range in.Uses(nil) {
			if !slices.Contains(uses, u) {
				uses = append(uses, u)
			}
		}
		if got := g.Uses(i); !slices.Equal(got, uses) {
			return fmt.Errorf("Uses(%d) = %v, want %v", i, got, uses)
		}
		if got := g.Def(i); got != in.Def() {
			return fmt.Errorf("Def(%d) = %s, want %s", i, got, in.Def())
		}
	}
	return nil
}
