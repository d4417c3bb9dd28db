package rap

import (
	"sort"

	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/regalloc"
)

// moveSpillCode is RAP's second phase (§3.2): a top-down traversal of the
// PDG that moves loads and stores out of loop regions into spill nodes
// placed immediately before and after the loop. Spill code of a variable
// may leave the loop only if the variable "was not combined with another
// virtual register in the region" — here: all pieces of the variable that
// appear in the loop received one colour, and no other variable in the
// loop shares that colour, so one physical register is dedicated to the
// variable for the whole loop.
//
// It runs after the entry region is coloured and before the rewrite to
// physical registers, so it can reason about virtual registers and their
// colours at once. Outer loops are processed before inner ones so spill
// code moves out of entire loop nests when possible.
func (a *allocator) moveSpillCode(entry *ig.Graph) error {
	var loops []*ir.Region
	a.f.Regions.Walk(func(r *ir.Region) {
		if r.IsLoop() {
			loops = append(loops, r)
		}
	})
	for _, L := range loops {
		if err := a.hoistLoopSpills(L, entry); err != nil {
			return err
		}
	}
	return nil
}

func (a *allocator) hoistLoopSpills(L *ir.Region, entry *ig.Graph) error {
	span := a.spans[L.ID]
	if span.Empty() || L.Parent == nil {
		return nil
	}
	// Collect the spill operations per slot within the loop.
	type slotOps struct {
		loads, stores []int
	}
	ops := map[int64]*slotOps{}
	for i := span.Start; i < span.End; i++ {
		in := a.f.Instrs[i]
		switch in.Op {
		case ir.OpLdSpill:
			so := ops[in.Imm]
			if so == nil {
				so = &slotOps{}
				ops[in.Imm] = so
			}
			so.loads = append(so.loads, i)
		case ir.OpStSpill:
			so := ops[in.Imm]
			if so == nil {
				so = &slotOps{}
				ops[in.Imm] = so
			}
			so.stores = append(so.stores, i)
		}
	}
	if len(ops) == 0 {
		return nil
	}
	slots := make([]int64, 0, len(ops))
	for s := range ops {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })

	edit := regalloc.NewEdit()
	changed := false
	var buf []ir.Reg
	for _, s := range slots {
		so := ops[s]
		// The variable this slot belongs to.
		var origin ir.Reg
		if len(so.loads) > 0 {
			origin = a.sp.Origin(a.f.Instrs[so.loads[0]].Dst)
		} else {
			origin = a.sp.Origin(a.f.Instrs[so.stores[0]].Src1)
		}
		// All pieces of the variable referenced in the loop must share
		// one colour, and no other variable in the loop may use it.
		famColor := 0
		dedicated := true
		for i := span.Start; i < span.End && dedicated; i++ {
			buf = a.refsAt(i, buf[:0])
			for _, r := range buf {
				n := entry.NodeOf(r)
				if n == nil {
					dedicated = false
					break
				}
				if a.sp.Origin(r) == origin {
					if famColor == 0 {
						famColor = n.Color
					} else if famColor != n.Color {
						dedicated = false
						break
					}
				}
			}
		}
		if !dedicated || famColor == 0 {
			continue
		}
		for i := span.Start; i < span.End && dedicated; i++ {
			buf = a.refsAt(i, buf[:0])
			for _, r := range buf {
				if a.sp.Origin(r) != origin && entry.NodeOf(r).Color == famColor {
					dedicated = false
					break
				}
			}
		}
		if !dedicated {
			continue
		}
		// The register value must enter the loop through memory: if a
		// piece of the variable is live into the loop in a register, the
		// pre-loop load could clobber a value that was never stored.
		liveInClash := false
		liveIn := a.lv.LiveIn(a.scratch.getSet(), span.Start)
		liveIn.ForEach(func(ri int) {
			if a.sp.Origin(ir.Reg(ri)) == origin {
				liveInClash = true
			}
		})
		a.scratch.putSet(liveIn)
		if liveInClash {
			continue
		}
		// Hoist: delete the loop's spill code for this slot; load once in
		// the spill node before the loop; store once in the spill node
		// after the loop when the loop wrote the slot.
		var name ir.Reg
		if len(so.loads) > 0 {
			name = a.f.Instrs[so.loads[0]].Dst
		} else {
			name = a.f.Instrs[so.stores[0]].Src1
		}
		for _, i := range so.loads {
			edit.Delete[i] = true
		}
		for _, i := range so.stores {
			edit.Delete[i] = true
		}
		parentRegion := L.Parent.ID
		// A pre-loop load is needed whenever the loop read the slot, and
		// also when stores are hoisted (so the post-loop store writes the
		// slot's old value back even if the loop body never ran).
		edit.InsertBefore(span.Start, &ir.Instr{
			Op: ir.OpLdSpill, Imm: s, Dst: name, Region: parentRegion,
		})
		if len(so.stores) > 0 {
			edit.InsertAfter(span.End-1, &ir.Instr{
				Op: ir.OpStSpill, Src1: name, Imm: s, Region: parentRegion,
			})
		}
		changed = true
		a.stats.Hoists++
		if a.opts.Trace.Enabled() {
			a.opts.Trace.Emit(&obs.SpillHoisted{
				Func: a.f.Name, Loop: L.ID, Parent: parentRegion,
				Slot: s, Reg: origin.String(),
				Loads: len(so.loads), Stores: len(so.stores),
			})
		}
	}
	if changed {
		edit.Apply(a.f)
		if err := a.reanalyze(); err != nil {
			return err
		}
	}
	return nil
}
