// Package dataflow implements the dataflow analyses the allocators rely
// on: per-instruction liveness and def-use (reaching definition) chains.
package dataflow

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Liveness holds per-instruction live register sets.
// Registers are indexed by their integer value; index 0 (ir.None) is never
// set.
type Liveness struct {
	// LiveIn[i] is the set of registers live immediately before
	// instruction i executes.
	LiveIn []*bitset.Set
	// LiveOut[i] is the set of registers live immediately after
	// instruction i executes.
	LiveOut []*bitset.Set
	// NumRegs is the register index capacity of the sets.
	NumRegs int

	// Storage kept for RecomputeLiveness: the per-instruction sets, the
	// per-block summaries, and the instructions' defs and use lists (the
	// uses of instruction i are useFlat[useAt[i]:useAt[i+1]]).
	sets, blockSets bitset.Batch
	defs            []ir.Reg
	useAt           []int32
	useFlat         []ir.Reg
}

// ComputeLiveness computes per-instruction liveness for g's function: a
// block-level backward dataflow fixpoint (UEVar/Kill summaries per basic
// block) followed by one backward sweep inside each block to fill the
// per-instruction sets.
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
	f := g.F
	n := len(f.Instrs)
	numRegs := int(f.NextReg)
	batch := lv.sets.Carve(2*n, numRegs)
	lv.LiveIn = batch[:n]
	lv.LiveOut = batch[n:]
	lv.NumRegs = numRegs
	// Precompute use/def per instruction. The per-instruction use lists
	// are spans of one flat arena (grown by appending each instruction's
	// uses in order) instead of n separate allocations.
	lv.defs = resize(lv.defs, n)
	lv.useAt = resize(lv.useAt, n+1)
	flat := lv.useFlat[:0]
	lv.useAt[0] = 0
	for i, in := range f.Instrs {
		flat = in.Uses(flat)
		lv.useAt[i+1] = int32(len(flat))
		lv.defs[i] = in.Def()
	}
	lv.useFlat = flat
	uses := func(i int) []ir.Reg { return flat[lv.useAt[i]:lv.useAt[i+1]] }
	defs := lv.defs
	nb := len(g.Blocks)
	if nb == 0 {
		return lv
	}
	// Block summaries: ueVar (used before any local kill) and kill.
	bbatch := lv.blockSets.Carve(4*nb+1, numRegs)
	ueVar := bbatch[:nb]
	kill := bbatch[nb : 2*nb]
	blockIn := bbatch[2*nb : 3*nb]
	blockOut := bbatch[3*nb : 4*nb]
	tmp := bbatch[4*nb]
	for b, blk := range g.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			for _, u := range uses(i) {
				if !kill[b].Has(int(u)) {
					ueVar[b].Add(int(u))
				}
			}
			if d := defs[i]; d != ir.None {
				kill[b].Add(int(d))
			}
		}
	}
	// Fixpoint over blocks, postorder (reverse of RPO) for fast
	// convergence on reducible graphs.
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
			// in = ueVar ∪ (out − kill)
			tmp.DiffWith(kill[b])
			tmp.UnionWith(ueVar[b])
			if !tmp.Equal(blockIn[b]) {
				blockIn[b].Copy(tmp)
				changed = true
			}
		}
	}
	// Fill per-instruction sets with one backward sweep per block.
	for b, blk := range g.Blocks {
		tmp.Copy(blockOut[b])
		for i := blk.End - 1; i >= blk.Start; i-- {
			lv.LiveOut[i].Copy(tmp)
			if d := defs[i]; d != ir.None {
				tmp.Remove(int(d))
			}
			for _, u := range uses(i) {
				tmp.Add(int(u))
			}
			lv.LiveIn[i].Copy(tmp)
		}
	}
	return lv
}

// DefUse records, for every register, where it is defined and used, and
// answers which uses a set of definitions reaches and which definitions
// reach a set of uses. The site tables are dense per register; both
// questions are walked on demand (the allocators only ask about the
// handful of registers they spill).
type DefUse struct {
	// NumRegs bounds the registers with site tables: Defs and Uses are
	// empty for every register at or above it.
	NumRegs int

	g *cfg.Graph
	// Sites of register r: defSites[defOff[r]:defOff[r+1]] and
	// useSites[useOff[r]:useOff[r+1]], each in ascending order.
	defOff, useOff     []int32
	defSites, useSites []int
	// The deduplicated uses of instruction i are useFlat[useAt[i]:useAt[i+1]].
	useAt   []int32
	useFlat []ir.Reg
	defAt   []ir.Reg
	// visited/gen implement O(1) per-query reset: a slot is visited in
	// the current walk iff visited[i] == gen. Bumping gen invalidates
	// every slot without touching the slice.
	visited []int32
	gen     int32
	stack   []int
}

// ComputeDefUse builds def/use site tables for g's function in one scan;
// reaching queries walk the CFG on demand.
func ComputeDefUse(g *cfg.Graph) *DefUse { return RecomputeDefUse(nil, g) }

// RecomputeDefUse builds the tables ComputeDefUse(g) would return into
// du's storage and returns du; du may be nil, which is ComputeDefUse.
// Slices du returned before the call must not be used after it.
func RecomputeDefUse(du *DefUse, g *cfg.Graph) *DefUse {
	if du == nil {
		du = &DefUse{}
	}
	f := g.F
	n := len(f.Instrs)
	du.g = g
	du.useAt = resize(du.useAt, n+1)
	du.defAt = resize(du.defAt, n)
	du.visited = resize(du.visited, n)
	clear(du.visited)
	du.gen = 0
	// Per-instruction deduplicated uses, and the register count the
	// tables need.
	numRegs := int(f.NextReg)
	flat := du.useFlat[:0]
	du.useAt[0] = 0
	var buf []ir.Reg
	for i, in := range f.Instrs {
		buf = in.Uses(buf[:0])
		start := len(flat)
		for _, u := range buf {
			if !slices.Contains(flat[start:], u) {
				flat = append(flat, u)
				numRegs = max(numRegs, int(u)+1)
			}
		}
		du.useAt[i+1] = int32(len(flat))
		d := in.Def()
		du.defAt[i] = d
		numRegs = max(numRegs, int(d)+1)
	}
	du.useFlat = flat
	du.NumRegs = numRegs
	// Counting sort of the sites by register, instruction order kept.
	du.defOff = resize(du.defOff, numRegs+1)
	du.useOff = resize(du.useOff, numRegs+1)
	clear(du.defOff)
	clear(du.useOff)
	nDefs := 0
	for _, d := range du.defAt {
		if d != ir.None {
			du.defOff[d+1]++
			nDefs++
		}
	}
	for _, u := range flat {
		du.useOff[u+1]++
	}
	for r := 1; r <= numRegs; r++ {
		du.defOff[r] += du.defOff[r-1]
		du.useOff[r] += du.useOff[r-1]
	}
	du.defSites = resize(du.defSites, nDefs)
	du.useSites = resize(du.useSites, len(flat))
	for i, d := range du.defAt {
		if d != ir.None {
			du.defSites[du.defOff[d]] = i
			du.defOff[d]++
		}
		for _, u := range flat[du.useAt[i]:du.useAt[i+1]] {
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
// instruction r is not live into. That drops no reached use: a path
// from a definition to a use it reaches keeps r live all along. lv may
// be nil.
func (du *DefUse) ReachedUses(defs []int, r ir.Reg, lv *Liveness) []int {
	du.gen++
	var reached []int
	stack := du.stack[:0]
	for _, d := range defs {
		stack = append(stack, du.g.InstrSuccs[d]...)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if du.visited[i] == du.gen {
			continue
		}
		du.visited[i] = du.gen
		if lv != nil && !lv.LiveIn[i].Has(int(r)) {
			continue // r dead here: no use ahead before a redefinition
		}
		if slices.Contains(du.useFlat[du.useAt[i]:du.useAt[i+1]], r) {
			reached = append(reached, i)
		}
		if du.defAt[i] == r {
			continue // killed; do not flow past
		}
		stack = append(stack, du.g.InstrSuccs[i]...)
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
		stack = append(stack, du.g.InstrPreds[u]...)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if du.visited[i] == du.gen {
			continue
		}
		du.visited[i] = du.gen
		if du.defAt[i] == r {
			reaching = append(reaching, i)
			continue // the walk ends at the definition
		}
		stack = append(stack, du.g.InstrPreds[i]...)
	}
	du.stack = stack
	slices.Sort(reaching)
	return reaching
}

// resize returns s with length n, reusing its array when it is large
// enough (a recomputation that outgrows it leaves append's headroom for
// the next); the contents are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
