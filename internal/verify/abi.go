package verify

import (
	"sort"

	"repro/internal/ir"
)

// ABI checks. An allocation marked ir.Function.ABI runs on the shared
// physical register file: calls clobber the caller-save registers and
// callee-save registers must be preserved. Two pieces make the
// per-function renaming proofs compose across call boundaries:
//
//  1. the fact dataflow's call transfer (abiCallClobber below) empties
//     every caller-save location at each call, so a value that is live
//     across a call and held only in caller-save registers is flagged;
//  2. checkABI's structural contract — call results and return operands
//     in RetReg, and a save/restore discipline for every callee-save
//     register the body writes — is exactly what a caller's proof
//     assumes about its callees when its callee-save facts survive the
//     call transfer.

// checkABI enforces the structural ABI contract on an ABI allocation:
// precolored register usage at calls and returns, and the callee-save
// save/restore discipline.
func (v *fnVerifier) checkABI() {
	for i, in := range v.alloc.Instrs {
		switch in.Op {
		case ir.OpCall:
			if in.Dst != ir.None && in.Dst != ir.RetReg {
				v.errorf("instr %d (%s): call result in %s, the ABI requires %s", i, in, in.Dst, ir.RetReg)
			}
		case ir.OpRet:
			if in.Src1 != ir.None && in.Src1 != ir.RetReg {
				v.errorf("instr %d (%s): return value in %s, the ABI requires %s", i, in, in.Src1, ir.RetReg)
			}
		}
		if v.full() {
			return
		}
	}
	v.checkCalleeSaves()
}

// checkCalleeSaves validates the save/restore discipline: the prologue
// (the maximal leading run of callee-save spill stores) must cover every
// callee-save register the body writes, each return must be immediately
// preceded by a full restore run, and the save slots must not be touched
// anywhere else.
func (v *fnVerifier) checkCalleeSaves() {
	a := v.alloc
	saved := map[ir.Reg]int64{}
	savedSlot := map[int64]ir.Reg{}
	body := 0
	for _, in := range a.Instrs {
		if in.Op != ir.OpStSpill || !ir.IsCalleeSave(in.Src1, v.k) {
			break
		}
		if _, dup := saved[in.Src1]; dup {
			v.errorf("prologue saves callee-save register %s twice", in.Src1)
			return
		}
		saved[in.Src1] = in.Imm
		savedSlot[in.Imm] = in.Src1
		body++
	}
	savedRegs := make([]ir.Reg, 0, len(saved))
	for r := range saved {
		savedRegs = append(savedRegs, r)
	}
	sort.Slice(savedRegs, func(i, j int) bool { return savedRegs[i] < savedRegs[j] })

	// isRestore reports whether in reloads a save slot back into the
	// register it was saved from.
	isRestore := func(in *ir.Instr) (ir.Reg, bool) {
		if in.Op != ir.OpLdSpill {
			return ir.None, false
		}
		r, ok := savedSlot[in.Imm]
		return r, ok && in.Dst == r
	}
	// Every return must sit behind a contiguous restore run covering the
	// whole saved set.
	inRun := map[int]bool{}
	for i := body; i < len(a.Instrs); i++ {
		if a.Instrs[i].Op != ir.OpRet {
			continue
		}
		got := map[ir.Reg]bool{}
		for j := i - 1; j >= body; j-- {
			r, ok := isRestore(a.Instrs[j])
			if !ok {
				break
			}
			got[r] = true
			inRun[j] = true
		}
		for _, r := range savedRegs {
			if !got[r] {
				v.errorf("return at instr %d does not restore callee-save register %s", i, r)
				if v.full() {
					return
				}
			}
		}
	}
	// Body sweep: unsaved callee-save writes and stray save-slot traffic.
	for i := body; i < len(a.Instrs); i++ {
		in := a.Instrs[i]
		switch in.Op {
		case ir.OpLdSpill:
			if _, ok := savedSlot[in.Imm]; ok && !inRun[i] {
				v.errorf("instr %d (%s): reads callee-save slot %d outside a restore run", i, in, in.Imm)
			}
		case ir.OpStSpill:
			if _, ok := savedSlot[in.Imm]; ok {
				v.errorf("instr %d (%s): overwrites callee-save slot %d", i, in, in.Imm)
			}
		}
		if d := in.Def(); d != ir.None && ir.IsCalleeSave(d, v.k) {
			if _, ok := saved[d]; !ok {
				v.errorf("instr %d (%s): writes callee-save register %s without saving it", i, in, d)
			}
		}
		if v.full() {
			return
		}
	}
}

// abiCallClobber applies the ABI transfer of a call to the fact state:
// every caller-save register location loses its contents (the
// interpreter poisons them after the call), except the location about to
// receive the call's result. With check set it first reports any live
// value the clobber destroys — a value live across a CALL whose every
// copy sits in caller-save registers has no surviving location.
func (d *factFlow) abiCallClobber(st *factState, i int, in *ir.Instr, check bool) {
	n := ir.CallerSaveCount(d.v.k)
	dstLoc := -1
	if in.Dst != ir.None {
		dstLoc = d.locOfReg(in.Dst)
	}
	clobbered := func(L int) bool { return L < n && L != dstLoc }
	if check {
		if live := d.liveAt(i); live != nil {
			live.ForEach(func(y int) {
				held, survives := false, false
				for loc := range st.written {
					if !st.holds(loc, ir.Reg(y)) {
						continue
					}
					held = true
					if !clobbered(loc) {
						survives = true
						break
					}
				}
				if held && !survives {
					d.v.errorf("instr %d (%s): value of %s is live across the call but held only in caller-save registers", i, in, ir.Reg(y))
				}
			})
		}
	}
	for loc := 0; loc < n; loc++ {
		if loc != dstLoc {
			st.empty(loc)
		}
	}
}
