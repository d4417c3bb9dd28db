package peephole

// Global (whole-function) redundant spill-load/store elimination — this
// repository's implementation of the paper's future-work item "better
// placement of spill code ... moving spill code out of any subregion is
// also likely to reduce the amount of spill code executed" (§5).
//
// Where Run (the paper's Fig. 6 pass) tracks slot↔register bindings only
// inside one basic block, RunGlobal first solves a forward must-available
// dataflow problem over the CFG: a binding (slot s is held by register r)
// is available at a block entry only if it is available at the exit of
// every predecessor. Each block is then rewritten exactly as in Run, but
// seeded with its entry facts, so loads whose value provably sits in a
// register on every path are deleted or turned into copies — e.g. the
// per-statement-region boundary loads of Fig. 7 collapse to one.

import (
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/obs"
)

// bindState is the dataflow fact: for each slot, the set of registers
// known to hold the slot's current value. The nil map pointer inside
// `top` marks the "unvisited" lattice top.
type bindState struct {
	slots map[int64]map[ir.Reg]bool
	top   bool
}

func newTop() *bindState { return &bindState{top: true} }

func newEmpty() *bindState { return &bindState{slots: map[int64]map[ir.Reg]bool{}} }

func (s *bindState) clone() *bindState {
	if s.top {
		return newTop()
	}
	cp := newEmpty()
	for slot, regs := range s.slots {
		m := make(map[ir.Reg]bool, len(regs))
		for r := range regs {
			m[r] = true
		}
		cp.slots[slot] = m
	}
	return cp
}

// meet intersects other into s (s := s ⊓ other) and reports change.
func (s *bindState) meet(other *bindState) bool {
	if other.top {
		return false
	}
	if s.top {
		s.top = false
		s.slots = other.clone().slots
		return true
	}
	changed := false
	for slot, regs := range s.slots {
		oregs := other.slots[slot]
		for r := range regs {
			if !oregs[r] {
				delete(regs, r)
				changed = true
			}
		}
		if len(regs) == 0 {
			delete(s.slots, slot)
		}
	}
	return changed
}

func (s *bindState) holders(slot int64) map[ir.Reg]bool {
	if s.top {
		return nil
	}
	return s.slots[slot]
}

func (s *bindState) unbindReg(r ir.Reg) {
	for slot, regs := range s.slots {
		delete(regs, r)
		if len(regs) == 0 {
			delete(s.slots, slot)
		}
	}
}

func (s *bindState) bind(r ir.Reg, slot int64) {
	s.unbindReg(r)
	if s.slots[slot] == nil {
		s.slots[slot] = map[ir.Reg]bool{}
	}
	s.slots[slot][r] = true
}

// step applies one instruction's effect to the state. When edit is
// non-nil the instruction may be simplified in place or marked deleted
// (the caller's rewrite pass); with edit nil it is a pure transfer
// function (the analysis pass). emit, when non-nil, reports each rewrite
// as an observability event.
func (s *bindState) step(in *ir.Instr, del func(), st *Stats, emit func(action string, slot int64, r ir.Reg)) {
	switch in.Op {
	case ir.OpLdSpill:
		slot, r := in.Imm, in.Dst
		holders := s.holders(slot)
		if holders[r] {
			if del != nil {
				del()
				st.LoadsDeleted++
				if emit != nil {
					emit("load-deleted", slot, r)
				}
			}
			return
		}
		if len(holders) > 0 {
			if del != nil {
				src := minReg(holders)
				in.Op = ir.OpI2I
				in.Src1 = src
				in.Imm = 0
				st.LoadsToCopies++
				if emit != nil {
					emit("load-to-copy", slot, r)
				}
			}
			s.bind(r, slot)
			return
		}
		s.bind(r, slot)
	case ir.OpStSpill:
		slot, r := in.Imm, in.Src1
		if s.holders(slot)[r] {
			if del != nil {
				del()
				st.StoresDeleted++
				if emit != nil {
					emit("store-deleted", slot, r)
				}
			}
			return
		}
		// The store redefines the slot: previous holders are stale.
		delete(s.slots, slot)
		s.bind(r, slot)
	case ir.OpI2I:
		src, dst := in.Src1, in.Dst
		var srcSlot int64
		srcBound := false
		for slot, regs := range s.slots {
			if regs[src] {
				srcSlot, srcBound = slot, true
				break
			}
		}
		s.unbindReg(dst)
		if srcBound {
			s.bind(dst, srcSlot)
		}
	default:
		if d := in.Def(); d != ir.None {
			s.unbindReg(d)
		}
	}
}

// RunGlobal performs whole-function redundant spill-load/store
// elimination. It edits f in place and returns statistics.
func RunGlobal(f *ir.Function) (Stats, error) {
	return RunGlobalTraced(f, nil)
}

// RunGlobalTraced is RunGlobal, additionally emitting one
// obs.LoadEliminated event per rewrite.
func RunGlobalTraced(f *ir.Function, tr *obs.Tracer) (Stats, error) {
	var st Stats
	g, err := cfg.Build(f)
	if err != nil {
		return st, err
	}
	n := len(g.Blocks)
	if n == 0 {
		return st, nil
	}
	in := make([]*bindState, n)
	for b := range in {
		in[b] = newTop()
	}
	in[0] = newEmpty()

	// Iterate to fixpoint in reverse postorder.
	rpo := g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			state := in[b].clone()
			if state.top {
				continue
			}
			for i := g.Blocks[b].Start; i < g.Blocks[b].End; i++ {
				state.step(f.Instrs[i], nil, nil, nil)
			}
			for _, succ := range g.Blocks[b].Succs {
				if in[succ].meet(state) {
					changed = true
				}
			}
		}
	}

	// Rewrite pass, seeded with each block's entry facts.
	var emit func(action string, slot int64, r ir.Reg)
	if tr.Enabled() {
		emit = func(action string, slot int64, r ir.Reg) {
			tr.Emit(&obs.LoadEliminated{Func: f.Name, Action: action, Slot: slot, Reg: r.String()})
		}
	}
	deleted := map[int]bool{}
	for b := 0; b < n; b++ {
		state := in[b].clone()
		if state.top {
			continue // unreachable block
		}
		for i := g.Blocks[b].Start; i < g.Blocks[b].End; i++ {
			idx := i
			state.step(f.Instrs[i], func() { deleted[idx] = true }, &st, emit)
		}
	}
	if len(deleted) > 0 {
		out := f.Instrs[:0]
		for i, inst := range f.Instrs {
			if !deleted[i] {
				out = append(out, inst)
			}
		}
		f.Instrs = out
	}
	return st, nil
}
