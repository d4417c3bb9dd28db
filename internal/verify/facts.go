package verify

import (
	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// The renaming proof is a relational forward dataflow over the ALLOCATED
// function's CFG. A fact (x, L) means "location L holds the current value
// of original virtual register x", where a location is one of the k
// physical registers or one of the spill slots. The state maps every
// location to the set of original registers it holds; the meet over paths
// is intersection (a fact must hold on every path).
//
// The entry state is the full product — every location holds every
// value — which is sound because the interpreter zero-initializes each
// frame's registers and spill slots, and every original register also
// reads zero before its first definition: at entry, every location really
// does hold every register's current value.
//
// Transfers: inserted spill and copy code moves location contents
// (lds s=>p copies slot s's set to p; sts p=>s the reverse; i2i p=>q
// copies p's set to q). A matched anchor definition of original register
// d into physical register p empties d from every location and sets p's
// set to {d}. Original copy events (y := x) add y to every location
// holding x and remove it everywhere else.
//
// The use check at each matched anchor then demands, for every positional
// operand pair (x original, p allocated), that p's set contains x. The
// interference check demands that no overwrite destroys the last copy of
// a register that is live in the original at the aligned point.

// factState maps each location to the set of original registers whose
// current value it holds. Locations are the k physical registers
// (indices 0..k-1) followed by the spill slots (k..k+S-1).
type factState struct {
	locs []*bitset.Set
}

func fullState(nLocs, nRegs int) *factState {
	st := &factState{locs: bitset.NewBatch(nLocs, nRegs)}
	for _, s := range st.locs {
		s.Fill(nRegs)
	}
	return st
}

// copyFrom overwrites st with other's contents; both must have the same
// shape.
func (st *factState) copyFrom(other *factState) {
	for i, s := range st.locs {
		s.Copy(other.locs[i])
	}
}

// meet intersects other into st and reports whether st changed.
func (st *factState) meet(other *factState) bool {
	changed := false
	for i, s := range st.locs {
		if s.IntersectWith(other.locs[i]) {
			changed = true
		}
	}
	return changed
}

// removeValue drops register r from every location.
func (st *factState) removeValue(r ir.Reg) {
	for _, s := range st.locs {
		s.Remove(int(r))
	}
}

// setOnly makes location loc hold exactly register r.
func (st *factState) setOnly(loc int, r ir.Reg) {
	st.locs[loc].Clear()
	st.locs[loc].Add(int(r))
}

// applyCopyEvent applies an original copy y := x: afterwards y is held
// exactly where x is held.
func (st *factState) applyCopyEvent(ev copyEvent) {
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

// factFlow carries the dataflow context for one function pair.
type factFlow struct {
	v   *fnVerifier
	al  *alignment
	olv *dataflow.Liveness // liveness of the ORIGINAL function
	// scratch is a reusable set over original registers.
	scratch    *bitset.Set
	obuf, abuf []ir.Reg
}

func (d *factFlow) locOfReg(p ir.Reg) int { return int(p) - 1 }
func (d *factFlow) locOfSlot(s int64) int { return d.v.k + int(s) }

// liveAt returns the original liveness set governing the interference
// check at alloc index i: live-out of the matched anchor, or — for
// inserted code — live-in of the next anchor's original point. nil when
// the point is past the last anchor (unreachable layout tail).
func (d *factFlow) liveAt(i int) *bitset.Set {
	if oi := d.al.origAnchorOf[i]; oi >= 0 {
		return d.olv.LiveOut[oi]
	}
	if co := d.al.closingOrig[i]; co < len(d.olv.LiveIn) {
		return d.olv.LiveIn[co]
	}
	return nil
}

// step applies alloc instruction i's transfer (and its attached original
// copy events) to st. With check set it also runs the use and
// interference checks, reporting through the verifier.
func (d *factFlow) step(st *factState, i int, check bool) {
	for _, ev := range d.al.preEvents[i] {
		st.applyCopyEvent(ev)
	}
	in := d.v.alloc.Instrs[i]
	switch in.Op {
	case ir.OpLabel:
		// no transfer
	case ir.OpLdSpill:
		src, dst := d.locOfSlot(in.Imm), d.locOfReg(in.Dst)
		if check {
			d.checkClobber(st, i, dst, st.locs[src], ir.None)
		}
		st.locs[dst].Copy(st.locs[src])
	case ir.OpStSpill:
		src, dst := d.locOfReg(in.Src1), d.locOfSlot(in.Imm)
		if check {
			d.checkClobber(st, i, dst, st.locs[src], ir.None)
		}
		st.locs[dst].Copy(st.locs[src])
	case ir.OpI2I:
		src, dst := d.locOfReg(in.Src1), d.locOfReg(in.Dst)
		if check {
			d.checkClobber(st, i, dst, st.locs[src], ir.None)
		}
		st.locs[dst].Copy(st.locs[src])
	default:
		oi := d.al.origAnchorOf[i]
		o := d.v.orig.Instrs[oi]
		if check {
			d.checkUses(st, i, o, in)
		}
		if in.Op == ir.OpCall && d.v.alloc.ABI {
			d.abiCallClobber(st, i, in, check)
		}
		do, da := o.Def(), in.Def()
		switch {
		case (do == ir.None) != (da == ir.None):
			// Alignment compared call-result presence; equal opcodes
			// otherwise imply equal definition shape. Defensive.
			if check {
				d.v.errorf("instr %d (%s): definition presence differs from original (%s)", i, in, o)
			}
		case da != ir.None:
			dst := d.locOfReg(da)
			if check {
				d.checkClobber(st, i, dst, nil, do)
			}
			st.removeValue(do)
			st.setOnly(dst, do)
		}
	}
	for _, ev := range d.al.postEvents[i] {
		st.applyCopyEvent(ev)
	}
}

// checkUses verifies each positional operand pair: the physical register
// must hold the value of the original register it replaces.
func (d *factFlow) checkUses(st *factState, i int, o, a *ir.Instr) {
	d.obuf = o.Uses(d.obuf[:0])
	d.abuf = a.Uses(d.abuf[:0])
	if len(d.obuf) != len(d.abuf) {
		d.v.errorf("instr %d (%s): operand count differs from original (%s)", i, a, o)
		return
	}
	for j := range d.obuf {
		x, p := d.obuf[j], d.abuf[j]
		if x == ir.None && p == ir.None {
			continue
		}
		if !st.locs[d.locOfReg(p)].Has(int(x)) {
			d.v.errorf("instr %d (%s): operand %s does not hold the value of %s (original %s)", i, a, p, x, o)
			if d.v.full() {
				return
			}
		}
	}
}

// pendingCopyDst reports whether original register y is the destination
// of a copy event of gap instruction i's gap that has not been applied
// yet. Gap liveness comes from the closing anchor — the far side of those
// events — so a pending destination's "live" bit refers to the value the
// copy is about to create, not the dead one still sitting in a location.
func (d *factFlow) pendingCopyDst(i int, y int) bool {
	ca := d.al.closingAlloc[i]
	if ca >= len(d.al.preEvents) {
		return false
	}
	for _, ev := range d.al.preEvents[ca] {
		if int(ev.dst) == y {
			return true
		}
	}
	if ca > 0 {
		for _, ev := range d.al.postEvents[ca-1] {
			if int(ev.dst) == y {
				return true
			}
		}
	}
	return false
}

// checkClobber reports when overwriting location dst would destroy the
// only remaining copy of a register that is live in the original program
// at this point. newContent (for moves) or newSingle (for definitions)
// names what dst will hold afterwards — values that survive the
// overwrite in place are exempt, as are pending copy destinations at gap
// instructions (their old value is dead; the live bit is the new one).
func (d *factFlow) checkClobber(st *factState, i, dst int, newContent *bitset.Set, newSingle ir.Reg) {
	live := d.liveAt(i)
	if live == nil {
		return
	}
	sc := d.scratch
	sc.Copy(st.locs[dst])
	sc.IntersectWith(live)
	if newContent != nil {
		sc.DiffWith(newContent)
	}
	if newSingle != ir.None {
		sc.Remove(int(newSingle))
	}
	if sc.Empty() {
		return
	}
	gap := d.al.origAnchorOf[i] < 0
	sc.ForEach(func(y int) {
		for L := range st.locs {
			if L != dst && st.locs[L].Has(y) {
				return
			}
		}
		if gap && d.pendingCopyDst(i, y) {
			return
		}
		d.v.errorf("instr %d (%s): overwrites the only copy of live register %s", i, d.v.alloc.Instrs[i], ir.Reg(y))
	})
}

// checkFacts runs the relational dataflow to a fixpoint and then replays
// every block with checking enabled.
func (v *fnVerifier) checkFacts(g *cfg.Graph, al *alignment) {
	og, err := cfg.Build(v.orig)
	if err != nil {
		v.errorf("original code has a broken CFG: %v", err)
		return
	}
	nLocs := v.k + v.alloc.SpillSlots
	nRegs := int(v.orig.NextReg)
	if nRegs == 0 || len(g.Blocks) == 0 {
		return
	}
	d := &factFlow{
		v: v, al: al,
		olv:     dataflow.ComputeLiveness(og),
		scratch: bitset.New(nRegs),
	}
	in := make([]*factState, len(g.Blocks))
	for b := range in {
		// Full product everywhere: the boundary condition at entry (every
		// location holds every register's value — all read zero), and the
		// optimistic top elsewhere, shrunk by meets to the greatest
		// fixpoint of this must-analysis.
		in[b] = fullState(nLocs, nRegs)
	}
	if v.alloc.ABI {
		// ABI entry condition: spill slots are still per-activation (zeroed,
		// so they hold every register's value), but the shared physical
		// registers hold the caller's garbage and therefore no value.
		entry := in[g.Blocks[0].ID]
		for l := 0; l < v.k && l < len(entry.locs); l++ {
			entry.locs[l].Clear()
		}
	}
	// Each block's transfer runs on one scratch state, reloaded from the
	// block's entry state.
	st := fullState(nLocs, nRegs)
	rpo := g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			st.copyFrom(in[b])
			blk := g.Blocks[b]
			for i := blk.Start; i < blk.End; i++ {
				d.step(st, i, false)
			}
			for _, succ := range blk.Succs {
				if in[succ].meet(st) {
					changed = true
				}
			}
		}
	}
	for _, blk := range g.Blocks {
		st.copyFrom(in[blk.ID])
		for i := blk.Start; i < blk.End; i++ {
			d.step(st, i, true)
			if v.full() {
				return
			}
		}
	}
}
