package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/ir"
)

// denseState is the fact state as one bitset over the original registers
// per location, and denseEntryStates its round-robin fixpoint: the
// straightforward form of the analysis, kept as the oracle that
// factState and entryStates must agree with.
type denseState struct {
	locs []*bitset.Set
}

func fullDense(nLocs, nRegs int) *denseState {
	st := &denseState{locs: new(bitset.Batch).Carve(nLocs, nRegs)}
	for _, s := range st.locs {
		s.Fill(nRegs)
	}
	return st
}

func (st *denseState) copyFrom(other *denseState) {
	for i, s := range st.locs {
		s.Copy(other.locs[i])
	}
}

func (st *denseState) meet(other *denseState) bool {
	changed := false
	for i, s := range st.locs {
		if s.IntersectWith(other.locs[i]) {
			changed = true
		}
	}
	return changed
}

func (st *denseState) applyCopyEvent(ev copyEvent) {
	if ev.src == ev.dst || ev.src == ir.None || ev.dst == ir.None {
		return
	}
	s, t := int(ev.src), int(ev.dst)
	for _, set := range st.locs {
		if set.Has(s) {
			set.Add(t)
		} else {
			set.Remove(t)
		}
	}
}

// step applies the transfer of alloc instruction i, as factFlow.step does
// without checking.
func (st *denseState) step(d *factFlow, i int) {
	for _, ev := range d.al.preEvents(i) {
		st.applyCopyEvent(ev)
	}
	in := d.v.alloc.Instrs[i]
	switch in.Op {
	case ir.OpLabel:
	case ir.OpLdSpill:
		st.locs[d.locOfReg(in.Dst)].Copy(st.locs[d.locOfSlot(in.Imm)])
	case ir.OpStSpill:
		st.locs[d.locOfSlot(in.Imm)].Copy(st.locs[d.locOfReg(in.Src1)])
	case ir.OpI2I:
		st.locs[d.locOfReg(in.Dst)].Copy(st.locs[d.locOfReg(in.Src1)])
	default:
		o := d.v.orig.Instrs[d.al.origAnchorOf[i]]
		if in.Op == ir.OpCall && d.v.alloc.ABI {
			for loc := 0; loc < ir.CallerSaveCount(d.v.k); loc++ {
				if in.Dst == ir.None || loc != d.locOfReg(in.Dst) {
					st.locs[loc].Clear()
				}
			}
		}
		if do, da := o.Def(), in.Def(); do != ir.None && da != ir.None {
			for _, s := range st.locs {
				s.Remove(int(do))
			}
			dst := st.locs[d.locOfReg(da)]
			dst.Clear()
			dst.Add(int(do))
		}
	}
	for _, ev := range d.al.postEvents(i) {
		st.applyCopyEvent(ev)
	}
}

// denseEntryStates starts every block at the full product (the entry
// block at the boundary condition) and sweeps all blocks in reverse
// postorder until no entry state changes.
func denseEntryStates(d *factFlow, g *cfg.Graph) []*denseState {
	in := make([]*denseState, len(g.Blocks))
	for b := range in {
		in[b] = fullDense(d.nLocs, d.nRegs)
	}
	if d.v.alloc.ABI {
		entry := in[g.Blocks[0].ID]
		for loc := 0; loc < d.v.k && loc < d.nLocs; loc++ {
			entry.locs[loc].Clear()
		}
	}
	st := fullDense(d.nLocs, d.nRegs)
	rpo := g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			st.copyFrom(in[b])
			blk := g.Blocks[b]
			for i := blk.Start; i < blk.End; i++ {
				st.step(d, i)
			}
			for _, succ := range blk.Succs {
				if in[succ].meet(st) {
					changed = true
				}
			}
		}
	}
	return in
}

// FactsMatchDense computes every block's entry state of every function
// of alloc with both entryStates and the dense oracle, and reports the
// first location whose register sets differ, or whose written set is not
// sorted and free of duplicates. The allocation must pass the k-bound
// and align with orig; it need not verify.
func FactsMatchDense(orig, alloc *ir.Program, k int) error {
	for i, of := range orig.Funcs {
		if err := factsMatchDense(of, alloc.Funcs[i], k); err != nil {
			return fmt.Errorf("%s: %w", of.Name, err)
		}
	}
	return nil
}

func factsMatchDense(orig, alloc *ir.Function, k int) error {
	v := &fnVerifier{orig: orig, alloc: alloc, k: k}
	if v.checkKBound(); len(v.errs) > 0 {
		return v.err()
	}
	g, err := cfg.Build(alloc)
	if err != nil {
		return err
	}
	al, err := buildAlignment(orig, alloc)
	if err != nil {
		return err
	}
	d := &factFlow{v: v, al: al, nLocs: k + alloc.SpillSlots, nRegs: int(orig.NextReg)}
	if d.nRegs == 0 || len(g.Blocks) == 0 {
		return nil
	}
	sparse, dense := d.entryStates(g), denseEntryStates(d, g)
	got := bitset.New(d.nRegs)
	for b, st := range sparse {
		for loc, want := range dense[b].locs {
			got.Clear()
			switch {
			case st == nil:
				got.Fill(d.nRegs)
			case !st.written[loc]:
				got.Copy(&st.shared)
			default:
				set := st.sets[loc]
				if !slices.IsSorted(set) || len(slices.Compact(slices.Clone(set))) != len(set) {
					return fmt.Errorf("block %d location %d: written set %v is not sorted and duplicate-free", b, loc, set)
				}
				for _, r := range set {
					got.Add(int(r))
				}
			}
			if !got.Equal(want) {
				return fmt.Errorf("block %d location %d: entry state holds %v, the dense oracle %v", b, loc, got.Elems(), want.Elems())
			}
		}
	}
	return nil
}

// dense returns st as a denseState.
func (st *factState) dense(nRegs int) *denseState {
	out := &denseState{locs: new(bitset.Batch).Carve(len(st.written), nRegs)}
	for loc, set := range out.locs {
		if !st.written[loc] {
			set.Copy(&st.shared)
			continue
		}
		for _, r := range st.sets[loc] {
			set.Add(int(r))
		}
	}
	return out
}

// randomFactState draws a state whose locations are unwritten or hold a
// few registers each.
func randomFactState(rng *rand.Rand, nLocs, nRegs int) *factState {
	st := topState(nLocs, nRegs)
	for r := 0; r < nRegs; r++ {
		if rng.Intn(3) == 0 {
			st.shared.Remove(r)
		}
	}
	for loc := range st.written {
		if rng.Intn(2) == 0 {
			continue
		}
		st.empty(loc)
		for n := rng.Intn(5); n > 0; n-- {
			r := ir.Reg(rng.Intn(nRegs))
			if i, ok := slices.BinarySearch(st.sets[loc], r); !ok {
				st.sets[loc] = slices.Insert(st.sets[loc], i, r)
			}
		}
	}
	return st
}

// TestFactStateOpsMatchDense applies random sequences of factState's
// operations to a state and its dense copy and requires them to stay
// equal; a meet must report a change whenever the dense meet does.
func TestFactStateOpsMatchDense(t *testing.T) {
	const nLocs, nRegs = 6, 70 // past one bitset word
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		st := randomFactState(rng, nLocs, nRegs)
		if trial%2 == 0 {
			st = st.clone()
		}
		want := st.dense(nRegs)
		for step := 0; step < 20; step++ {
			r, loc, loc2 := ir.Reg(rng.Intn(nRegs)), rng.Intn(nLocs), rng.Intn(nLocs)
			op := rng.Intn(8)
			switch op {
			case 0:
				other := randomFactState(rng, nLocs, nRegs)
				got, dense := st.meet(other), want.meet(other.dense(nRegs))
				if dense && !got {
					t.Fatalf("trial %d step %d: meet changed the state but reported no change", trial, step)
				}
			case 1:
				st.move(loc, loc2)
				want.locs[loc].Copy(want.locs[loc2])
			case 2:
				st.removeValue(r)
				for _, set := range want.locs {
					set.Remove(int(r))
				}
			case 3:
				st.setOnly(loc, r)
				want.locs[loc].Clear()
				want.locs[loc].Add(int(r))
			case 4:
				st.empty(loc)
				want.locs[loc].Clear()
			case 5:
				ev := copyEvent{src: ir.Reg(rng.Intn(nRegs)), dst: r}
				st.applyCopyEvent(ev)
				want.applyCopyEvent(ev)
			case 6:
				// A clone must not share storage with its source.
				cp := st.clone()
				cp.meet(randomFactState(rng, nLocs, nRegs))
			case 7:
				scratch := randomFactState(rng, nLocs, nRegs)
				scratch.copyFrom(st)
				st = scratch
			}
			got := st.dense(nRegs)
			for loc, set := range want.locs {
				if !got.locs[loc].Equal(set) {
					t.Fatalf("trial %d step %d (op %d): location %d holds %v, want %v", trial, step, op, loc, got.locs[loc].Elems(), set.Elems())
				}
			}
			for loc, w := range st.written {
				if set := st.sets[loc]; w && (!slices.IsSorted(set) || len(slices.Compact(slices.Clone(set))) != len(set)) {
					t.Fatalf("trial %d step %d (op %d): location %d set %v not sorted and duplicate-free", trial, step, op, loc, set)
				}
			}
		}
	}
}
