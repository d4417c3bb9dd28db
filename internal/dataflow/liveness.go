// Package dataflow implements the dataflow analyses the allocators rely
// on: liveness and def-use (reaching definition) chains.
package dataflow

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Liveness holds the registers live into and out of every basic block;
// it reads the instructions' uses and definitions from the graph's
// table. It stores no set per instruction: a reader that needs the live
// set at each instruction of a block walks the block backward from
// BlockOut with one running set, applying Step at each instruction, and
// a reader that needs one point asks LiveIn or IsLiveIn, or reads
// ascending points, live-out sets included, through a Cursor.
//
// Registers are indexed by their integer value; index 0 (ir.None) is
// never set.
type Liveness struct {
	// NumRegs is the register index capacity of the sets.
	NumRegs int

	g *cfg.Graph
	// in[b] and out[b] are the registers live into and out of block b.
	in, out []*bitset.Set
	// blockSets is the storage kept for RecomputeLiveness: in, out, and
	// the fixpoint's scratch.
	blockSets bitset.Batch
}

// ComputeLiveness computes liveness for g's function: a block-level
// backward dataflow fixpoint over UEVar/Kill summaries per basic block.
func ComputeLiveness(g *cfg.Graph) *Liveness { return RecomputeLiveness(nil, g) }

// RecomputeLiveness computes the liveness ComputeLiveness(g) would return
// into lv's storage and returns lv; lv may be nil, which is
// ComputeLiveness. The sets are re-carved at the current register count,
// so each has the capacity a fresh computation gives it. Sets of lv's
// previous contents must not be used after the call.
func RecomputeLiveness(lv *Liveness, g *cfg.Graph) *Liveness {
	if lv == nil {
		lv = &Liveness{}
	}
	numRegs := int(g.F.NextReg)
	lv.g = g
	lv.NumRegs = numRegs
	nb := len(g.Blocks)
	// Block sets: in and out, which the analysis keeps, and the block
	// summaries ueVar (used before any local kill) and kill.
	bbatch := lv.blockSets.Carve(4*nb+1, numRegs)
	lv.in = bbatch[:nb]
	lv.out = bbatch[nb : 2*nb]
	ueVar := bbatch[2*nb : 3*nb]
	kill := bbatch[3*nb : 4*nb]
	tmp := bbatch[4*nb]
	for b, blk := range g.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			for _, u := range g.Uses(i) {
				if !kill[b].Has(int(u)) {
					ueVar[b].Add(int(u))
				}
			}
			if d := g.Def(i); d != ir.None {
				kill[b].Add(int(d))
			}
		}
	}
	// Fixpoint over blocks, postorder (reverse of RPO) for fast
	// convergence on reducible graphs. The order covers every block,
	// unreachable ones too, so every block's sets are the fixpoint's.
	rpo := g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for idx := len(rpo) - 1; idx >= 0; idx-- {
			b := rpo[idx]
			tmp.Clear()
			for _, s := range g.Blocks[b].Succs {
				tmp.UnionWith(lv.in[s])
			}
			if !tmp.Equal(lv.out[b]) {
				lv.out[b].Copy(tmp)
				changed = true
			}
			// in = ueVar ∪ (out − kill)
			tmp.DiffWith(kill[b])
			tmp.UnionWith(ueVar[b])
			if !tmp.Equal(lv.in[b]) {
				lv.in[b].Copy(tmp)
				changed = true
			}
		}
	}
	return lv
}

// BlockIn returns the registers live into block b. The set belongs to
// lv and must not be modified.
func (lv *Liveness) BlockIn(b int) *bitset.Set { return lv.in[b] }

// BlockOut returns the registers live out of block b. The set belongs
// to lv and must not be modified.
func (lv *Liveness) BlockOut(b int) *bitset.Set { return lv.out[b] }

// Step turns live, the registers live out of instruction i, into the
// registers live into it: i's definition is removed and its uses added.
// Walking a block from its last instruction to its first, starting from
// a copy of BlockOut, makes live each instruction's live-out set before
// its Step and its live-in set after.
func (lv *Liveness) Step(live *bitset.Set, i int) {
	if d := lv.g.Def(i); d != ir.None {
		live.Remove(int(d))
	}
	for _, u := range lv.g.Uses(i) {
		live.Add(int(u))
	}
}

// LiveIn sets dst to the registers live into instruction i and returns
// it: a walk from the end of i's block back to i. dst needs at least
// the capacity of the analysis' sets (NumRegs).
func (lv *Liveness) LiveIn(dst *bitset.Set, i int) *bitset.Set {
	b := lv.g.BlockOf[i]
	blk := lv.g.Blocks[b]
	if i == blk.Start {
		return copySet(dst, lv.in[b])
	}
	copySet(dst, lv.out[b])
	for j := blk.End - 1; j >= i; j-- {
		lv.Step(dst, j)
	}
	return dst
}

// copySet overwrites dst, which may have the larger capacity, with src.
func copySet(dst, src *bitset.Set) *bitset.Set {
	dst.Clear()
	dst.UnionWith(src)
	return dst
}

// IsLiveIn reports whether r is live into instruction i: whether the
// first reference to r from i on in i's block reads it, or, with no
// reference left in the block, whether r is live out of the block.
func (lv *Liveness) IsLiveIn(i int, r ir.Reg) bool {
	b := lv.g.BlockOf[i]
	for j := i; j < lv.g.Blocks[b].End; j++ {
		if slices.Contains(lv.g.Uses(j), r) {
			return true
		}
		if lv.g.Def(j) == r {
			return false
		}
	}
	return lv.out[b].Has(int(r))
}

// Cursor reads the live sets of a Liveness at program points in
// ascending order for the cost of one walk per block: entering a block,
// it walks it backward once from BlockOut, logging what each Step
// changed, and then moves forward by undoing the steps. A point before
// the cursor's last one reloads its block, so any order is answered
// correctly; ascending order is the cheap one.
type Cursor struct {
	lv   *Liveness
	live *bitset.Set
	// b is the loaded block (-1 before the first query); at is the
	// cursor's point in it, 2i for live-in of instruction i and 2i+1 for
	// its live-out.
	b, at int
	// The log of block b's backward walk: with k = i-Start, Step at
	// instruction i added added[addAt[k+1]:addAt[k]] to the set, and it
	// removed i's definition from it when killed[k] is set.
	added  []ir.Reg
	addAt  []int32
	killed []bool
}

// NewCursor returns a cursor over lv at no point yet.
func NewCursor(lv *Liveness) *Cursor {
	return &Cursor{lv: lv, live: bitset.New(lv.NumRegs), b: -1}
}

// LiveIn returns the registers live into instruction i. The set belongs
// to the cursor and holds until its next query.
func (c *Cursor) LiveIn(i int) *bitset.Set { return c.seek(i, 2*i) }

// LiveOut returns the registers live out of instruction i. The set
// belongs to the cursor and holds until its next query.
func (c *Cursor) LiveOut(i int) *bitset.Set { return c.seek(i, 2*i+1) }

// seek moves the cursor to point at of instruction i's block.
func (c *Cursor) seek(i, at int) *bitset.Set {
	lv := c.lv
	if b := lv.g.BlockOf[i]; b != c.b || at < c.at {
		c.load(b)
	}
	start := lv.g.Blocks[c.b].Start
	for c.at < at {
		if c.at%2 == 1 {
			c.at++ // live-out of j is live-in of j+1 within a block
			continue
		}
		// Undo the Step of instruction j: from its live-in to its live-out.
		k := c.at/2 - start
		for _, u := range c.added[c.addAt[k+1]:c.addAt[k]] {
			c.live.Remove(int(u))
		}
		if c.killed[k] {
			c.live.Add(int(lv.g.Def(c.at / 2)))
		}
		c.at++
	}
	return c.live
}

// load walks block b backward from its live-out set, logging each
// step, and leaves the cursor at live-in of the block's first
// instruction.
func (c *Cursor) load(b int) {
	lv := c.lv
	blk := lv.g.Blocks[b]
	n := blk.End - blk.Start
	c.b, c.at = b, 2*blk.Start
	c.addAt = resize(c.addAt, n+1)
	c.killed = resize(c.killed, n)
	c.added = c.added[:0]
	c.addAt[n] = 0
	copySet(c.live, lv.out[b])
	for i := blk.End - 1; i >= blk.Start; i-- {
		k := i - blk.Start
		d := lv.g.Def(i)
		c.killed[k] = d != ir.None && c.live.Has(int(d))
		if d != ir.None {
			c.live.Remove(int(d))
		}
		for _, u := range lv.g.Uses(i) {
			if !c.live.Has(int(u)) {
				c.live.Add(int(u))
				c.added = append(c.added, u)
			}
		}
		c.addAt[k] = int32(len(c.added))
	}
}

// DefUse records, for every register, where it is defined and used, and
// answers which uses a set of definitions reaches and which definitions
// reach a set of uses. The site tables are dense per register, sorted
// from the graph's operand table, so an instruction that reads a
// register twice is one use site; both questions are walked on demand
// over the graph's blocks (the allocators only ask about the handful of
// registers they spill).
type DefUse struct {
	// NumRegs bounds the registers with site tables: Defs and Uses are
	// empty for every register at or above it.
	NumRegs int

	g *cfg.Graph
	// Sites of register r: defSites[defOff[r]:defOff[r+1]] and
	// useSites[useOff[r]:useOff[r+1]], each in ascending order.
	defOff, useOff     []int32
	defSites, useSites []int
	// visited/gen implement O(1) per-query reset: a slot is visited in
	// the current walk iff visited[i] == gen. Bumping gen invalidates
	// every slot without touching the slice.
	visited []int32
	gen     int32
	stack   []int
}

// ComputeDefUse builds def/use site tables for g's function from g's
// operand table; reaching queries walk the CFG on demand.
func ComputeDefUse(g *cfg.Graph) *DefUse { return RecomputeDefUse(nil, g) }

// RecomputeDefUse builds the tables ComputeDefUse(g) would return into
// du's storage and returns du; du may be nil, which is ComputeDefUse.
// Slices du returned before the call must not be used after it.
func RecomputeDefUse(du *DefUse, g *cfg.Graph) *DefUse {
	if du == nil {
		du = &DefUse{}
	}
	n := len(g.F.Instrs)
	du.g = g
	du.visited = resize(du.visited, n)
	clear(du.visited)
	du.gen = 0
	// The register count the tables need.
	numRegs := int(g.F.NextReg)
	for i := range n {
		numRegs = max(numRegs, int(g.Def(i))+1)
		for _, u := range g.Uses(i) {
			numRegs = max(numRegs, int(u)+1)
		}
	}
	du.NumRegs = numRegs
	// Counting sort of the sites by register, instruction order kept.
	du.defOff = resize(du.defOff, numRegs+1)
	du.useOff = resize(du.useOff, numRegs+1)
	clear(du.defOff)
	clear(du.useOff)
	for i := range n {
		if d := g.Def(i); d != ir.None {
			du.defOff[d+1]++
		}
		for _, u := range g.Uses(i) {
			du.useOff[u+1]++
		}
	}
	for r := 1; r <= numRegs; r++ {
		du.defOff[r] += du.defOff[r-1]
		du.useOff[r] += du.useOff[r-1]
	}
	du.defSites = resize(du.defSites, int(du.defOff[numRegs]))
	du.useSites = resize(du.useSites, int(du.useOff[numRegs]))
	for i := range n {
		if d := g.Def(i); d != ir.None {
			du.defSites[du.defOff[d]] = i
			du.defOff[d]++
		}
		for _, u := range g.Uses(i) {
			du.useSites[du.useOff[u]] = i
			du.useOff[u]++
		}
	}
	// Each offset now holds its register's end, which is the next
	// register's start: shift back by one.
	copy(du.defOff[1:], du.defOff[:numRegs])
	copy(du.useOff[1:], du.useOff[:numRegs])
	du.defOff[0], du.useOff[0] = 0, 0
	return du
}

// Defs returns the instructions that define r, ascending. The slice
// belongs to du and must not be modified.
func (du *DefUse) Defs(r ir.Reg) []int {
	if int(r) >= du.NumRegs {
		return nil
	}
	return du.defSites[du.defOff[r]:du.defOff[r+1]:du.defOff[r+1]]
}

// Uses returns the instructions that use r, ascending. The slice belongs
// to du and must not be modified.
func (du *DefUse) Uses(r ir.Reg) []int {
	if int(r) >= du.NumRegs {
		return nil
	}
	return du.useSites[du.useOff[r]:du.useOff[r+1]:du.useOff[r+1]]
}

// ReachedUses returns the uses of r reached by the definitions of r at
// the instructions in defs, ascending: one forward walk from all of them
// that stops at redefinitions of r. The result is the union of every
// single definition's reached uses.
//
// With lv, the liveness of the same code, the walk also stops at every
// block it enters where r is not live. That drops no reached use: a
// path from a definition to a use it reaches keeps r live all along. lv
// may be nil.
func (du *DefUse) ReachedUses(defs []int, r ir.Reg, lv *Liveness) []int {
	du.gen++
	var reached []int
	stack := du.stack[:0]
	for _, d := range defs {
		stack = du.g.Succs(stack, d)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if du.visited[i] == du.gen {
			continue
		}
		du.visited[i] = du.gen
		if b := du.g.BlockOf[i]; lv != nil && i == du.g.Blocks[b].Start && !lv.in[b].Has(int(r)) {
			continue // r dead here: no use ahead before a redefinition
		}
		if slices.Contains(du.g.Uses(i), r) {
			reached = append(reached, i)
		}
		if du.g.Def(i) == r {
			continue // killed; do not flow past
		}
		stack = du.g.Succs(stack, i)
	}
	du.stack = stack
	slices.Sort(reached)
	return reached
}

// ReachingDefs returns the definitions of r that reach a use of r at one
// of the instructions in uses, ascending: one backward walk from all of
// them that stops at definitions of r. A definition is in the result
// exactly when its ReachedUses meet uses.
func (du *DefUse) ReachingDefs(uses []int, r ir.Reg) []int {
	du.gen++
	var reaching []int
	stack := du.stack[:0]
	for _, u := range uses {
		stack = du.g.Preds(stack, u)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if du.visited[i] == du.gen {
			continue
		}
		du.visited[i] = du.gen
		if du.g.Def(i) == r {
			reaching = append(reaching, i)
			continue // the walk ends at the definition
		}
		stack = du.g.Preds(stack, i)
	}
	du.stack = stack
	slices.Sort(reaching)
	return reaching
}

// resize returns s with length n, reusing its array when it is large
// enough (a recomputation that outgrows it leaves append's headroom for
// the next); the contents are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
