package verify

import (
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// checkBalance verifies that spill loads are balanced against stores to a
// consistent stack slot: a load from a slot no store in the function ever
// writes reads the frame's initial zero — legitimate only when the loaded
// value either dies unused or flows straight back into the same slot
// (RAP's §3.2 motion emits such a pre-loop load when it hoists a loop's
// stores, so the post-loop store can write the slot's old value back on
// the zero-iteration path). Slot consistency along every individual path
// is enforced more strongly by the fact dataflow's use check; this check
// catches the structural imbalance directly and reports it in the
// paper's terms.
func (v *fnVerifier) checkBalance(g *cfg.Graph) {
	stored := map[int64]bool{}
	for _, in := range v.alloc.Instrs {
		if in.Op == ir.OpStSpill {
			stored[in.Imm] = true
		}
	}
	// Only a load from a slot that no store writes reads the def-use
	// chains, so they are built at the first such load.
	var du *dataflow.DefUse
	for i, in := range v.alloc.Instrs {
		if in.Op != ir.OpLdSpill || stored[in.Imm] {
			continue
		}
		if du == nil {
			du = dataflow.ComputeDefUse(g)
		}
		for _, u := range du.ReachedUses([]int{i}, in.Dst, nil) {
			use := v.alloc.Instrs[u]
			if use.Op == ir.OpStSpill && use.Imm == in.Imm {
				continue // storing the slot's own value back is balanced
			}
			v.errorf("instr %d (%s): load from slot %d, which no store writes, reaches instr %d (%s)",
				i, in, in.Imm, u, use)
			break
		}
		if v.full() {
			return
		}
	}
}
