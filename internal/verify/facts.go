package verify

import (
	"slices"

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
//
// A state keeps one register set for all the locations that no path has
// written since entry, and a sorted set for each written location
// (factState). entryStates solves the block entry states in reverse
// postorder sweeps that re-run only the blocks whose entry state changed;
// the checking replay then runs every block once from its entry state.

// factState maps each location to the set of original registers whose
// current value it holds. Locations are the k physical registers
// (indices 0..k-1) followed by the spill slots (k..k+S-1).
//
// All locations hold the same set at entry, and every transfer and meet
// changes the locations that no path has written since entry alike, so
// they share one register set (shared). A written location holds its
// own set, sorted ascending; such sets stay small, because a definition
// leaves its register in one location and only spill and copy code
// spreads it to others.
type factState struct {
	shared  bitset.Set
	written []bool
	sets    [][]ir.Reg // sets[L] is L's set where written[L]
}

// topState returns the state in which every location holds every one of
// nRegs registers.
func topState(nLocs, nRegs int) *factState {
	st := &factState{written: make([]bool, nLocs), sets: make([][]ir.Reg, nLocs)}
	st.shared.Grow(nRegs)
	st.shared.Fill(nRegs)
	return st
}

// setTop makes st the top state over nRegs registers.
func (st *factState) setTop(nRegs int) {
	st.shared.Fill(nRegs)
	clear(st.written)
}

// holds reports whether location loc holds register r.
func (st *factState) holds(loc int, r ir.Reg) bool {
	if !st.written[loc] {
		return st.shared.Has(int(r))
	}
	_, ok := slices.BinarySearch(st.sets[loc], r)
	return ok
}

// copyFrom overwrites st with other's contents; both must have the same
// shape. st keeps its own set storage.
func (st *factState) copyFrom(other *factState) {
	st.shared.Copy(&other.shared)
	copy(st.written, other.written)
	for loc, w := range other.written {
		if w {
			st.sets[loc] = append(st.sets[loc][:0], other.sets[loc]...)
		}
	}
}

// clone returns a copy of st whose written sets share one allocation.
// Each set is capped at its own length, so an operation that grows one
// set reallocates it instead of writing over the next.
func (st *factState) clone() *factState {
	n := 0
	for loc, w := range st.written {
		if w {
			n += len(st.sets[loc])
		}
	}
	vals := make([]ir.Reg, 0, n)
	cp := &factState{written: slices.Clone(st.written), sets: make([][]ir.Reg, len(st.sets))}
	cp.shared.Grow(st.shared.Cap())
	cp.shared.Copy(&st.shared)
	for loc, w := range st.written {
		if w {
			lo := len(vals)
			vals = append(vals, st.sets[loc]...)
			cp.sets[loc] = vals[lo:len(vals):len(vals)]
		}
	}
	return cp
}

// meet intersects other into st and reports whether st changed.
func (st *factState) meet(other *factState) bool {
	changed := false
	for loc, w := range st.written {
		ow := other.written[loc]
		set := st.sets[loc]
		n := len(set)
		switch {
		case !w && !ow:
			continue // both hold their shared sets, intersected below
		case !w:
			// loc held st's shared set; it keeps the part of other's set
			// that the shared set holds, and becomes written.
			set = set[:0]
			for _, r := range other.sets[loc] {
				if st.shared.Has(int(r)) {
					set = append(set, r)
				}
			}
			st.written[loc] = true
			changed = true
		case !ow:
			set = slices.DeleteFunc(set, func(r ir.Reg) bool { return !other.shared.Has(int(r)) })
		default:
			set = intersectSorted(set, other.sets[loc])
		}
		if len(set) != n {
			changed = true
		}
		st.sets[loc] = set
	}
	if st.shared.IntersectWith(&other.shared) {
		changed = true
	}
	return changed
}

// intersectSorted keeps the elements of the sorted set a that the sorted
// set b also holds, in place.
func intersectSorted(a, b []ir.Reg) []ir.Reg {
	out, j := a[:0], 0
	for _, r := range a {
		for j < len(b) && b[j] < r {
			j++
		}
		if j < len(b) && b[j] == r {
			out = append(out, r)
		}
	}
	return out
}

// move makes location dst hold what location src holds.
func (st *factState) move(dst, src int) {
	if dst == src {
		return
	}
	st.written[dst] = st.written[src]
	if st.written[src] {
		st.sets[dst] = append(st.sets[dst][:0], st.sets[src]...)
	}
}

// removeValue drops register r from every location.
func (st *factState) removeValue(r ir.Reg) {
	st.shared.Remove(int(r))
	for loc, w := range st.written {
		if w {
			st.sets[loc] = deleteReg(st.sets[loc], r)
		}
	}
}

// setOnly makes location loc hold exactly register r.
func (st *factState) setOnly(loc int, r ir.Reg) {
	st.written[loc] = true
	st.sets[loc] = append(st.sets[loc][:0], r)
}

// empty makes location loc hold no register.
func (st *factState) empty(loc int) {
	st.written[loc] = true
	st.sets[loc] = st.sets[loc][:0]
}

// applyCopyEvent applies an original copy y := x: afterwards y is held
// exactly where x is held.
func (st *factState) applyCopyEvent(ev copyEvent) {
	if ev.src == ev.dst || ev.src == ir.None || ev.dst == ir.None {
		return
	}
	x, y := ev.src, ev.dst
	if st.shared.Has(int(x)) {
		st.shared.Add(int(y))
	} else {
		st.shared.Remove(int(y))
	}
	for loc, w := range st.written {
		if !w {
			continue
		}
		set := st.sets[loc]
		if _, ok := slices.BinarySearch(set, x); !ok {
			st.sets[loc] = deleteReg(set, y)
		} else if i, ok := slices.BinarySearch(set, y); !ok {
			st.sets[loc] = slices.Insert(set, i, y)
		}
	}
}

// deleteReg removes r from the sorted set, in place.
func deleteReg(set []ir.Reg, r ir.Reg) []ir.Reg {
	if i, ok := slices.BinarySearch(set, r); ok {
		return slices.Delete(set, i, i+1)
	}
	return set
}

// factFlow carries the dataflow context for one function pair.
type factFlow struct {
	v  *fnVerifier
	al *alignment
	// olive reads the liveness of the ORIGINAL function; the checking
	// replay asks for ascending original points, so it walks each block
	// of the original once.
	olive        *dataflow.Cursor
	nOrig        int
	nLocs, nRegs int
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
		return d.olive.LiveOut(int(oi))
	}
	if co := int(d.al.closingOrig[i]); co < d.nOrig {
		return d.olive.LiveIn(co)
	}
	return nil
}

// step applies alloc instruction i's transfer (and its attached original
// copy events) to st. With check set it also runs the use and
// interference checks, reporting through the verifier.
func (d *factFlow) step(st *factState, i int, check bool) {
	for _, ev := range d.al.preEvents(i) {
		st.applyCopyEvent(ev)
	}
	in := d.v.alloc.Instrs[i]
	switch in.Op {
	case ir.OpLabel:
		// no transfer
	case ir.OpLdSpill:
		src, dst := d.locOfSlot(in.Imm), d.locOfReg(in.Dst)
		if check {
			d.checkClobber(st, i, dst, src, ir.None)
		}
		st.move(dst, src)
	case ir.OpStSpill:
		src, dst := d.locOfReg(in.Src1), d.locOfSlot(in.Imm)
		if check {
			d.checkClobber(st, i, dst, src, ir.None)
		}
		st.move(dst, src)
	case ir.OpI2I:
		src, dst := d.locOfReg(in.Src1), d.locOfReg(in.Dst)
		if check {
			d.checkClobber(st, i, dst, src, ir.None)
		}
		st.move(dst, src)
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
				d.checkClobber(st, i, dst, -1, do)
			}
			st.removeValue(do)
			st.setOnly(dst, do)
		}
	}
	for _, ev := range d.al.postEvents(i) {
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
		if !st.holds(d.locOfReg(p), x) {
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
	ca := int(d.al.closingAlloc[i])
	if ca >= len(d.al.origAnchorOf) {
		return false
	}
	for _, ev := range d.al.preEvents(ca) {
		if int(ev.dst) == y {
			return true
		}
	}
	if ca > 0 {
		for _, ev := range d.al.postEvents(ca - 1) {
			if int(ev.dst) == y {
				return true
			}
		}
	}
	return false
}

// checkClobber reports when overwriting location dst would destroy the
// only remaining copy of a register that is live in the original program
// at this point. src (for moves; -1 for definitions) or newSingle (for
// definitions) names what dst will hold afterwards — values that survive
// the overwrite in place are exempt, as are pending copy destinations at
// gap instructions (their old value is dead; the live bit is the new
// one).
func (d *factFlow) checkClobber(st *factState, i, dst, src int, newSingle ir.Reg) {
	live := d.liveAt(i)
	if live == nil {
		return
	}
	gap := d.al.origAnchorOf[i] < 0
	check := func(y int) {
		r := ir.Reg(y)
		if (newSingle != ir.None && r == newSingle) || (src >= 0 && st.holds(src, r)) {
			return
		}
		for loc := range st.written {
			if loc != dst && st.holds(loc, r) {
				return
			}
		}
		if gap && d.pendingCopyDst(i, y) {
			return
		}
		d.v.errorf("instr %d (%s): overwrites the only copy of live register %s", i, d.v.alloc.Instrs[i], r)
	}
	if st.written[dst] {
		for _, r := range st.sets[dst] {
			if live.Has(int(r)) {
				check(int(r))
			}
		}
		return
	}
	sc := d.scratch
	sc.Copy(&st.shared)
	sc.IntersectWith(live)
	sc.ForEach(check)
}

// checkFacts runs the relational dataflow to a fixpoint and then replays
// every block with checking enabled.
func (v *fnVerifier) checkFacts(g *cfg.Graph, al *alignment) {
	og, err := cfg.Build(v.orig)
	if err != nil {
		v.errorf("original code has a broken CFG: %v", err)
		return
	}
	nRegs := int(v.orig.NextReg)
	if nRegs == 0 || len(g.Blocks) == 0 {
		return
	}
	d := &factFlow{
		v: v, al: al,
		olive:   dataflow.NewCursor(dataflow.ComputeLiveness(og)),
		nOrig:   len(v.orig.Instrs),
		nLocs:   v.k + v.alloc.SpillSlots,
		nRegs:   nRegs,
		scratch: bitset.New(nRegs),
	}
	in := d.entryStates(g)
	st := topState(d.nLocs, d.nRegs)
	for _, blk := range g.Blocks {
		d.load(st, in[blk.ID])
		for i := blk.Start; i < blk.End; i++ {
			d.step(st, i, true)
			if v.full() {
				return
			}
		}
	}
}

// load makes st a block's entry state; nil is the top state of a block
// that no predecessor reaches.
func (d *factFlow) load(st, entry *factState) {
	if entry == nil {
		st.setTop(d.nRegs)
	} else {
		st.copyFrom(entry)
	}
}

// entryStates computes every block's entry state, the greatest fixpoint
// of the meet over predecessors. The top state (every location holds
// every register) is the boundary condition at entry: the interpreter
// zero-initializes each frame's registers and spill slots, and every
// original register also reads zero before its first definition. It is
// also the optimistic start everywhere else, so a block takes its entry
// state when a predecessor first reaches it, and later meets only shrink
// it. Sweeps in reverse postorder re-run only the blocks whose entry
// state changed; every transfer is monotone, so the order reaches the
// same fixpoint as any other. A block no predecessor reaches keeps a nil
// state, standing for top.
func (d *factFlow) entryStates(g *cfg.Graph) []*factState {
	in := make([]*factState, len(g.Blocks))
	entry := topState(d.nLocs, d.nRegs)
	if d.v.alloc.ABI {
		// ABI entry condition: spill slots are still per-activation
		// (zeroed, so they hold every register's value), but the shared
		// physical registers hold the caller's garbage and therefore no
		// value.
		for loc := 0; loc < d.v.k && loc < d.nLocs; loc++ {
			entry.empty(loc)
		}
	}
	in[g.Blocks[0].ID] = entry
	dirty := make([]bool, len(g.Blocks))
	for b := range dirty {
		dirty[b] = true
	}
	st := topState(d.nLocs, d.nRegs)
	rpo := g.ReversePostorder()
	for again := true; again; {
		again = false
		for _, b := range rpo {
			if !dirty[b] {
				continue
			}
			dirty[b] = false
			d.load(st, in[b])
			blk := g.Blocks[b]
			for i := blk.Start; i < blk.End; i++ {
				d.step(st, i, false)
			}
			for _, succ := range blk.Succs {
				if in[succ] == nil {
					in[succ] = st.clone()
				} else if !in[succ].meet(st) {
					continue
				}
				dirty[succ] = true
				again = true
			}
		}
	}
	return in
}
