package dataflow_test

// Property-based tests: on randomly generated (compilable, structured)
// programs, the dataflow results must satisfy their defining equations.

import (
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
	"repro/internal/testutil"
)

func randomFunctions(t *testing.T, seed int64) []*ir.Function {
	t.Helper()
	src := randprog.Generate(seed%97, randprog.DefaultConfig())
	p, err := testutil.Compile(src, lower.Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return p.Funcs
}

// TestLivenessIsFixpoint: LiveOut(i) = ∪ LiveIn(succ) and
// LiveIn(i) = uses(i) ∪ (LiveOut(i) − def(i)) hold at every instruction.
func TestLivenessIsFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		for _, fn := range randomFunctions(t, seed) {
			g, err := cfg.Build(fn)
			if err != nil {
				return false
			}
			lv := dataflow.ComputeLiveness(g)
			tmp := bitset.New(lv.NumRegs)
			var buf []ir.Reg
			for i, in := range fn.Instrs {
				tmp.Clear()
				for _, s := range g.InstrSuccs[i] {
					tmp.UnionWith(liveIn(lv, s))
				}
				if !tmp.Equal(liveOut(lv, i)) {
					return false
				}
				tmp.Copy(liveOut(lv, i))
				if d := in.Def(); d != ir.None {
					tmp.Remove(int(d))
				}
				buf = in.Uses(buf[:0])
				for _, u := range buf {
					tmp.Add(int(u))
				}
				if !tmp.Equal(liveIn(lv, i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestNothingLiveAtEntry: functions take arguments through getparam, so
// no register is live before the first instruction.
func TestNothingLiveAtEntry(t *testing.T) {
	f := func(seed int64) bool {
		for _, fn := range randomFunctions(t, seed) {
			if len(fn.Instrs) == 0 {
				continue
			}
			g, err := cfg.Build(fn)
			if err != nil {
				return false
			}
			lv := dataflow.ComputeLiveness(g)
			if !lv.BlockIn(0).Empty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDefUseConsistency: every reached use really uses the register, lies
// at a recorded use site, and every use with a reaching def is reached by
// at least one def (or is reached by no def only when some path from
// entry avoids all defs).
func TestDefUseConsistency(t *testing.T) {
	f := func(seed int64) bool {
		for _, fn := range randomFunctions(t, seed) {
			g, err := cfg.Build(fn)
			if err != nil {
				return false
			}
			du := dataflow.ComputeDefUse(g)
			for r := ir.Reg(0); int(r) < du.NumRegs; r++ {
				useSet := map[int]bool{}
				for _, u := range du.Uses(r) {
					useSet[u] = true
				}
				for _, d := range du.Defs(r) {
					for _, u := range du.ReachedUses([]int{d}, r, nil) {
						if !useSet[u] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDominanceProperties: the entry block dominates every reachable
// block; immediate dominators are acyclic and rooted at the entry; every
// reachable block's postdominator chain reaches the virtual exit.
func TestDominanceProperties(t *testing.T) {
	f := func(seed int64) bool {
		for _, fn := range randomFunctions(t, seed) {
			g, err := cfg.Build(fn)
			if err != nil {
				return false
			}
			idom := g.Dominators()
			sets := g.DominatorSets()
			for b := range g.Blocks {
				reachable := b == 0 || len(g.Blocks[b].Preds) > 0
				if !reachable {
					continue
				}
				if sets[b] == nil || !sets[b][0] {
					return false // entry must dominate
				}
				// idom chain terminates at entry.
				steps := 0
				for d := b; d != 0; d = idom[d] {
					if idom[d] < 0 || steps > len(g.Blocks) {
						return false
					}
					steps++
				}
			}
			ipdom := g.PostDominators()
			exit := len(g.Blocks)
			for b := range g.Blocks {
				if b != 0 && len(g.Blocks[b].Preds) == 0 {
					continue
				}
				steps := 0
				d := b
				for d != exit {
					d = ipdom[d]
					if d < 0 || steps > len(g.Blocks)+1 {
						return false
					}
					steps++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
