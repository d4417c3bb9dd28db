package testutil

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
)

// SizeExtremePairs compiles the randprog programs of seeds 1..seeds and
// pairs each of the m smallest functions (by instruction count) with
// each of the m largest, in both orders: inputs for checking that an
// analysis recomputed into the storage of one function's analysis
// matches a fresh analysis of another, larger or smaller, function.
func SizeExtremePairs(seeds, m int) ([][2]*ir.Function, error) {
	var funcs []*ir.Function
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p, err := Compile(randprog.Generate(seed, randprog.DefaultConfig()), lower.Options{})
		if err != nil {
			return nil, fmt.Errorf("randprog seed %d: %w", seed, err)
		}
		funcs = append(funcs, p.Funcs...)
	}
	slices.SortStableFunc(funcs, func(a, b *ir.Function) int { return len(a.Instrs) - len(b.Instrs) })
	m = min(m, len(funcs)/2)
	var pairs [][2]*ir.Function
	for _, small := range funcs[:m] {
		for _, large := range funcs[len(funcs)-m:] {
			pairs = append(pairs, [2]*ir.Function{small, large}, [2]*ir.Function{large, small})
		}
	}
	return pairs, nil
}

// sameInts compares two index lists, treating nil and empty as equal.
func sameInts(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b)) }

// SameCFG returns an error naming the first field where got differs from
// want: the function, an instruction's uses or definition, BlockOf, or a
// block's range, Succs or Preds.
func SameCFG(got, want *cfg.Graph) error {
	if got.F != want.F {
		return fmt.Errorf("F = %s, want %s", got.F.Name, want.F.Name)
	}
	for i := range want.F.Instrs {
		if g, w := got.Uses(i), want.Uses(i); !slices.Equal(g, w) {
			return fmt.Errorf("Uses(%d) = %v, want %v", i, g, w)
		}
		if g, w := got.Def(i), want.Def(i); g != w {
			return fmt.Errorf("Def(%d) = %s, want %s", i, g, w)
		}
	}
	if !sameInts(got.BlockOf, want.BlockOf) {
		return fmt.Errorf("BlockOf = %v, want %v", got.BlockOf, want.BlockOf)
	}
	if len(got.Blocks) != len(want.Blocks) {
		return fmt.Errorf("%d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	for b, wb := range want.Blocks {
		gb := got.Blocks[b]
		if gb.ID != wb.ID || gb.Start != wb.Start || gb.End != wb.End ||
			!sameInts(gb.Succs, wb.Succs) || !sameInts(gb.Preds, wb.Preds) {
			return fmt.Errorf("block %d = %+v, want %+v", b, *gb, *wb)
		}
	}
	return nil
}

// ReferenceEdges returns the instruction-level control flow of f, found
// from its branch targets and labels alone: succs[i] lists the
// instructions control may reach immediately after instruction i (a
// jump's target, a cbr's targets in label order and each once, nothing
// after a ret, else the next instruction), and preds[i] lists, in
// ascending order, the instructions whose successors include i. It is
// the oracle for the block-derived cfg.Graph.Succs and Preds.
func ReferenceEdges(f *ir.Function) (succs, preds [][]int, err error) {
	labels := map[string]int{}
	for i, in := range f.Instrs {
		if in.Op == ir.OpLabel {
			labels[in.Label] = i
		}
	}
	n := len(f.Instrs)
	succs, preds = make([][]int, n), make([][]int, n)
	for i, in := range f.Instrs {
		switch in.Op {
		case ir.OpJump:
			t, ok := labels[in.Label]
			if !ok {
				return nil, nil, fmt.Errorf("%s: jump to unknown label %q", f.Name, in.Label)
			}
			succs[i] = []int{t}
		case ir.OpCBr:
			t1, ok1 := labels[in.Label]
			t2, ok2 := labels[in.Label2]
			if !ok1 || !ok2 {
				return nil, nil, fmt.Errorf("%s: cbr to unknown label %q/%q", f.Name, in.Label, in.Label2)
			}
			succs[i] = []int{t1}
			if t2 != t1 {
				succs[i] = append(succs[i], t2)
			}
		case ir.OpRet:
		default:
			if i+1 < n {
				succs[i] = []int{i + 1}
			}
		}
		for _, t := range succs[i] {
			preds[t] = append(preds[t], i)
		}
	}
	return succs, preds, nil
}

// Liveness is the reference liveness analysis: the registers live into
// and out of every instruction, each in a set of its own. It is the
// computation dataflow.Liveness replaced, which stores sets per block
// only, and the tests compare the two.
type Liveness struct {
	// LiveIn[i] and LiveOut[i] are the registers live immediately before
	// and after instruction i executes.
	LiveIn, LiveOut []*bitset.Set
	// NumRegs is the register index capacity of the sets.
	NumRegs int
}

// ReferenceLiveness computes the per-instruction liveness of g's
// function: a block-level backward dataflow fixpoint over UEVar/Kill
// summaries, then one backward sweep inside each block that stores
// every instruction's sets.
func ReferenceLiveness(g *cfg.Graph) *Liveness {
	f := g.F
	n := len(f.Instrs)
	numRegs := int(f.NextReg)
	sets := new(bitset.Batch).Carve(2*n, numRegs)
	lv := &Liveness{LiveIn: sets[:n], LiveOut: sets[n:], NumRegs: numRegs}
	uses := make([][]ir.Reg, n)
	defs := make([]ir.Reg, n)
	for i, in := range f.Instrs {
		uses[i] = in.Uses(nil)
		defs[i] = in.Def()
	}
	nb := len(g.Blocks)
	bsets := new(bitset.Batch).Carve(4*nb+1, numRegs)
	ueVar, kill := bsets[:nb], bsets[nb:2*nb]
	blockIn, blockOut := bsets[2*nb:3*nb], bsets[3*nb:4*nb]
	tmp := bsets[4*nb]
	for b, blk := range g.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			for _, u := range uses[i] {
				if !kill[b].Has(int(u)) {
					ueVar[b].Add(int(u))
				}
			}
			if d := defs[i]; d != ir.None {
				kill[b].Add(int(d))
			}
		}
	}
	rpo := g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for idx := len(rpo) - 1; idx >= 0; idx-- {
			b := rpo[idx]
			tmp.Clear()
			for _, s := range g.Blocks[b].Succs {
				tmp.UnionWith(blockIn[s])
			}
			if !tmp.Equal(blockOut[b]) {
				blockOut[b].Copy(tmp)
				changed = true
			}
			tmp.DiffWith(kill[b])
			tmp.UnionWith(ueVar[b])
			if !tmp.Equal(blockIn[b]) {
				blockIn[b].Copy(tmp)
				changed = true
			}
		}
	}
	for b, blk := range g.Blocks {
		tmp.Copy(blockOut[b])
		for i := blk.End - 1; i >= blk.Start; i-- {
			lv.LiveOut[i].Copy(tmp)
			if d := defs[i]; d != ir.None {
				tmp.Remove(int(d))
			}
			for _, u := range uses[i] {
				tmp.Add(int(u))
			}
			lv.LiveIn[i].Copy(tmp)
		}
	}
	return lv
}

// SameLiveness returns an error naming the first point where got differs
// from the reference want for g's function: its register count, a
// block's live-in or live-out set (contents
// or capacity), a set a backward walk with Step holds, a set an
// ascending Cursor reads, or, at the instructions at selects, the set
// LiveIn derives, a set a Cursor reads after reloading its block, or
// the IsLiveIn answer for each register regs selects. A nil selector
// selects everything.
func SameLiveness(g *cfg.Graph, got *dataflow.Liveness, want *Liveness, at func(i int) bool, regs func(ir.Reg) bool) error {
	if got.NumRegs != want.NumRegs {
		return fmt.Errorf("NumRegs = %d, want %d", got.NumRegs, want.NumRegs)
	}
	live := bitset.New(want.NumRegs)
	for b, blk := range g.Blocks {
		if err := sameSet("BlockIn", b, got.BlockIn(b), want.LiveIn[blk.Start]); err != nil {
			return err
		}
		if err := sameSet("BlockOut", b, got.BlockOut(b), want.LiveOut[blk.End-1]); err != nil {
			return err
		}
		live.Copy(got.BlockOut(b))
		for i := blk.End - 1; i >= blk.Start; i-- {
			if err := sameSet("walk live-out", i, live, want.LiveOut[i]); err != nil {
				return err
			}
			got.Step(live, i)
			if err := sameSet("walk live-in", i, live, want.LiveIn[i]); err != nil {
				return err
			}
		}
	}
	ascending, reloading := dataflow.NewCursor(got), dataflow.NewCursor(got)
	for i := range want.LiveIn {
		if err := sameSet("Cursor.LiveIn", i, ascending.LiveIn(i), want.LiveIn[i]); err != nil {
			return err
		}
		if err := sameSet("Cursor.LiveOut", i, ascending.LiveOut(i), want.LiveOut[i]); err != nil {
			return err
		}
		if at != nil && !at(i) {
			continue
		}
		if err := sameSet("LiveIn", i, got.LiveIn(live, i), want.LiveIn[i]); err != nil {
			return err
		}
		if err := sameSet("reloaded Cursor.LiveOut", i, reloading.LiveOut(i), want.LiveOut[i]); err != nil {
			return err
		}
		if err := sameSet("reloaded Cursor.LiveIn", i, reloading.LiveIn(i), want.LiveIn[i]); err != nil {
			return err
		}
		for r := ir.Reg(0); int(r) < want.NumRegs; r++ {
			if regs != nil && !regs(r) {
				continue
			}
			if g, w := got.IsLiveIn(i, r), want.LiveIn[i].Has(int(r)); g != w {
				return fmt.Errorf("IsLiveIn(%d, %s) = %v, want %v", i, r, g, w)
			}
		}
	}
	return nil
}

func sameSet(name string, i int, got, want *bitset.Set) error {
	if got.Cap() != want.Cap() || !got.Equal(want) {
		return fmt.Errorf("%s[%d] = %v (cap %d), want %v (cap %d)", name, i, got.Elems(), got.Cap(), want.Elems(), want.Cap())
	}
	return nil
}

// SameDefUse returns an error naming the first register whose Defs,
// Uses, reached uses (from each of its definitions) or reaching
// definitions (of all its uses) differ between got and want. The walks
// are compared for the registers reach selects, or for every register
// when reach is nil.
func SameDefUse(got, want *dataflow.DefUse, reach func(ir.Reg) bool) error {
	if got.NumRegs != want.NumRegs {
		return fmt.Errorf("NumRegs = %d, want %d", got.NumRegs, want.NumRegs)
	}
	for r := ir.Reg(0); int(r) <= want.NumRegs; r++ {
		if g, w := got.Defs(r), want.Defs(r); !slices.Equal(g, w) {
			return fmt.Errorf("Defs(%s) = %v, want %v", r, g, w)
		}
		if g, w := got.Uses(r), want.Uses(r); !slices.Equal(g, w) {
			return fmt.Errorf("Uses(%s) = %v, want %v", r, g, w)
		}
		if reach != nil && !reach(r) {
			continue
		}
		for _, d := range want.Defs(r) {
			if g, w := got.ReachedUses([]int{d}, r, nil), want.ReachedUses([]int{d}, r, nil); !slices.Equal(g, w) {
				return fmt.Errorf("ReachedUses(%d, %s) = %v, want %v", d, r, g, w)
			}
		}
		if g, w := got.ReachingDefs(want.Uses(r), r), want.ReachingDefs(want.Uses(r), r); !slices.Equal(g, w) {
			return fmt.Errorf("ReachingDefs(uses of %s) = %v, want %v", r, g, w)
		}
	}
	return nil
}
