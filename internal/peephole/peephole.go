// Package peephole implements RAP's final phase (§3.3): a local
// optimization over basic blocks that removes the unnecessary spill loads
// and stores that hierarchical allocation can leave behind when renamed
// pieces of one variable end up in the same physical register.
//
// The pass tracks, within each basic block, which registers are known to
// hold the current value of which spill slot. This subsumes all five
// patterns of the paper's Fig. 6:
//
//	(1) ldm r2,20 … ldm r2,20      → second load deleted
//	(2) ldm r2,20 … ldm r3,20      → second load becomes mv r3,r2
//	(3) ldm r2,20 … stm 20,r2      → store deleted
//	(4) stm 20,r2 … ldm r2,20      → load deleted
//	(5) stm 20,r2 … mv r3,r2 … stm 20,r3 → second store deleted
//
// (with "…" containing no redefinition of the registers involved and no
// intervening store to slot 20).
package peephole

import (
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Stats reports what the pass removed or rewrote.
type Stats struct {
	LoadsDeleted  int
	LoadsToCopies int
	StoresDeleted int
}

// Run applies the optimization to f (normally after register allocation;
// the pass is also correct on virtual-register code), emitting one
// obs.LoadEliminated event per rewrite to tr (nil is free). It edits f in
// place and returns statistics.
func Run(f *ir.Function, tr *obs.Tracer) (Stats, error) {
	var st Stats
	g, err := cfg.Build(f)
	if err != nil {
		return st, err
	}
	type binding struct {
		slot int64
		ok   bool
	}
	deleted := map[int]bool{}
	for _, b := range g.Blocks {
		// slotRegs[s] = set of registers holding slot s's current value;
		// regSlot[r] = the slot register r mirrors, if any.
		slotRegs := map[int64]map[ir.Reg]bool{}
		regSlot := map[ir.Reg]binding{}
		unbindReg := func(r ir.Reg) {
			if bd := regSlot[r]; bd.ok {
				delete(slotRegs[bd.slot], r)
			}
			delete(regSlot, r)
		}
		bind := func(r ir.Reg, s int64) {
			unbindReg(r)
			if slotRegs[s] == nil {
				slotRegs[s] = map[ir.Reg]bool{}
			}
			slotRegs[s][r] = true
			regSlot[r] = binding{slot: s, ok: true}
		}
		for i := b.Start; i < b.End; i++ {
			in := f.Instrs[i]
			switch in.Op {
			case ir.OpLdSpill:
				s, r := in.Imm, in.Dst
				holders := slotRegs[s]
				if holders[r] {
					// Pattern (1)/(4): r already holds the slot value.
					deleted[i] = true
					st.LoadsDeleted++
					if tr.Enabled() {
						tr.Emit(&obs.LoadEliminated{Func: f.Name, Action: "load-deleted", Slot: s, Reg: r.String()})
					}
					continue
				}
				if len(holders) > 0 {
					// Pattern (2): some other register holds the value;
					// turn the reload into a copy.
					src := minReg(holders)
					in.Op = ir.OpI2I
					in.Src1 = src
					in.Imm = 0
					st.LoadsToCopies++
					if tr.Enabled() {
						tr.Emit(&obs.LoadEliminated{Func: f.Name, Action: "load-to-copy", Slot: s, Reg: r.String()})
					}
					bind(r, s)
					continue
				}
				bind(r, s)
			case ir.OpStSpill:
				s, r := in.Imm, in.Src1
				if slotRegs[s][r] {
					// Patterns (3)/(5): the slot already holds this value.
					deleted[i] = true
					st.StoresDeleted++
					if tr.Enabled() {
						tr.Emit(&obs.LoadEliminated{Func: f.Name, Action: "store-deleted", Slot: s, Reg: r.String()})
					}
					continue
				}
				// The store changes the slot: previous holders go stale.
				for old := range slotRegs[s] {
					delete(regSlot, old)
				}
				slotRegs[s] = map[ir.Reg]bool{}
				bind(r, s)
			case ir.OpI2I:
				src, dst := in.Src1, in.Dst
				srcBind := regSlot[src]
				unbindReg(dst)
				if srcBind.ok {
					bind(dst, srcBind.slot)
				}
			default:
				if d := in.Def(); d != ir.None {
					unbindReg(d)
				}
				// OpStore/OpLoad touch program memory, not the frame's
				// spill area, and calls run in their own frames, so
				// bindings survive them.
			}
		}
	}
	if len(deleted) > 0 {
		out := f.Instrs[:0]
		for i, in := range f.Instrs {
			if !deleted[i] {
				out = append(out, in)
			}
		}
		f.Instrs = out
	}
	return st, nil
}

func minReg(set map[ir.Reg]bool) ir.Reg {
	best := ir.None
	for r := range set {
		if best == ir.None || r < best {
			best = r
		}
	}
	return best
}
