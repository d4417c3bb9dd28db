// Package cfg builds control-flow graphs — at both instruction and basic
// block granularity — and dominance information over IR functions.
package cfg

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Graph is the control-flow graph of one function.
type Graph struct {
	F *ir.Function

	// InstrSuccs[i] lists the instruction indices control may reach
	// immediately after instruction i executes.
	InstrSuccs [][]int
	// InstrPreds is the reverse of InstrSuccs.
	InstrPreds [][]int

	// Blocks partitions the instructions into basic blocks.
	Blocks []*Block
	// BlockOf[i] is the index of the block containing instruction i.
	BlockOf []int

	// Storage behind the exported views, kept for Rebuild: the flat
	// successor and predecessor arenas InstrSuccs and InstrPreds slice,
	// the block structs Blocks points at, the arena of block edge lists,
	// and the label index.
	succs, preds []int
	blocks       []Block
	edges        []int
	labels       map[string]int
}

// Block is a basic block: the half-open instruction range [Start, End).
type Block struct {
	ID         int
	Start, End int
	Succs      []int // successor block IDs
	Preds      []int // predecessor block IDs
}

// Build constructs the CFG for f. It returns an error if a branch targets
// an unknown label.
func Build(f *ir.Function) (*Graph, error) { return Rebuild(nil, f) }

// Rebuild constructs the CFG for f into g's storage and returns g: the
// graph Build would return, allocating only where f outgrows what g
// already holds (the arrays then grow as append grows them, leaving
// room for the next round). g may be nil, which is Build. Every slice of
// g's previous contents is overwritten, so callers must not keep any
// across the call. Allocators that re-derive the CFG after each spill
// round use it to recycle one graph.
func Rebuild(g *Graph, f *ir.Function) (*Graph, error) {
	if g == nil {
		g = &Graph{}
	}
	g.F = f
	n := len(f.Instrs)
	if g.labels == nil {
		nl := 0
		for _, in := range f.Instrs {
			if in.Op == ir.OpLabel {
				nl++
			}
		}
		g.labels = make(map[string]int, nl)
	} else {
		clear(g.labels)
	}
	// Pass 1: the label index, and the successor count of every
	// instruction so the arenas are sized exactly. Distinct label names
	// name distinct instructions, so a cbr has two successors exactly
	// when its labels differ.
	total := 0
	for i, in := range f.Instrs {
		if in.Op == ir.OpLabel {
			g.labels[in.Label] = i
		}
		switch in.Op {
		case ir.OpJump:
			total++
		case ir.OpCBr:
			total++
			if in.Label != in.Label2 {
				total++
			}
		case ir.OpRet:
		default:
			if i+1 < n {
				total++
			}
		}
	}
	g.succs = resize(g.succs, total)
	g.preds = resize(g.preds, total)
	g.InstrSuccs = resize(g.InstrSuccs, n)
	g.InstrPreds = resize(g.InstrPreds, n)
	g.BlockOf = resize(g.BlockOf, n)
	// Pass 2: successors, resolving labels. BlockOf counts each
	// instruction's predecessors until the blocks are cut.
	count := g.BlockOf
	clear(count)
	at := 0
	for i, in := range f.Instrs {
		s := g.succs[at:at]
		switch in.Op {
		case ir.OpJump:
			t, ok := g.labels[in.Label]
			if !ok {
				return nil, fmt.Errorf("%s: jump to unknown label %q", f.Name, in.Label)
			}
			s = append(s, t)
		case ir.OpCBr:
			t1, ok1 := g.labels[in.Label]
			t2, ok2 := g.labels[in.Label2]
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("%s: cbr to unknown label %q/%q", f.Name, in.Label, in.Label2)
			}
			s = append(s, t1)
			if t1 != t2 {
				s = append(s, t2)
			}
		case ir.OpRet:
			// no successors
		default:
			if i+1 < n {
				s = append(s, i+1)
			}
		}
		g.InstrSuccs[i] = s[:len(s):len(s)]
		for _, t := range s {
			count[t]++
		}
		at += len(s)
	}
	// Predecessors in source order: turn the counts into start offsets,
	// then drop each edge at its target's cursor.
	off := 0
	for i, c := range count {
		count[i] = off
		off += c
	}
	for i, succs := range g.InstrSuccs {
		for _, t := range succs {
			g.preds[count[t]] = i
			count[t]++
		}
	}
	start := 0
	for i, end := range count {
		g.InstrPreds[i] = g.preds[start:end:end]
		start = end
	}
	g.buildBlocks()
	return g, nil
}

// leader reports whether instruction i starts a basic block: the entry,
// a label, or the instruction after a branch.
func (g *Graph) leader(i int) bool {
	return i == 0 || g.F.Instrs[i].Op == ir.OpLabel || g.F.Instrs[i-1].IsBranch()
}

func (g *Graph) buildBlocks() {
	n := len(g.F.Instrs)
	nb := 0
	for i := 0; i < n; i++ {
		if g.leader(i) {
			nb++
		}
	}
	g.blocks = resize(g.blocks, nb)
	g.Blocks = resize(g.Blocks, nb)
	b := -1
	for i := 0; i < n; i++ {
		if g.leader(i) {
			b++
			g.blocks[b] = Block{ID: b, Start: i}
			g.Blocks[b] = &g.blocks[b]
		}
		g.blocks[b].End = i + 1
		g.BlockOf[i] = b
	}
	// Block edges come from the last instruction's successors plus
	// fallthrough (which InstrSuccs already covers). Every such successor
	// starts a block, and every predecessor of a block's first
	// instruction ends one, so a block's predecessors are the blocks of
	// its first instruction's predecessors, already in ascending order.
	ne := 0
	for i := range g.blocks {
		ne += len(g.InstrPreds[g.blocks[i].Start])
	}
	g.edges = resize(g.edges, 2*ne)
	at := 0
	for i := range g.blocks {
		blk := &g.blocks[i]
		s := g.edges[at:at]
		for _, t := range g.InstrSuccs[blk.End-1] {
			if sb := g.BlockOf[t]; len(s) == 0 || s[0] != sb {
				s = append(s, sb)
			}
		}
		blk.Succs = s[:len(s):len(s)]
		at += len(s)
		p := g.edges[at:at]
		for _, j := range g.InstrPreds[blk.Start] {
			p = append(p, g.BlockOf[j])
		}
		blk.Preds = p[:len(p):len(p)]
		at += len(p)
	}
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// ReversePostorder returns block IDs in reverse postorder from the entry
// block. Unreachable blocks are appended at the end in ID order.
func (g *Graph) ReversePostorder() []int {
	n := len(g.Blocks)
	visited := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if n > 0 {
		dfs(0)
	}
	out := make([]int, 0, n)
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for b := 0; b < n; b++ {
		if !visited[b] {
			out = append(out, b)
		}
	}
	return out
}

// Dominators computes the immediate dominator of every reachable block
// using the Cooper/Harvey/Kennedy iterative algorithm. idom[entry] = entry;
// unreachable blocks get idom -1.
func (g *Graph) Dominators() []int {
	n := len(g.Blocks)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if n == 0 {
		return idom
	}
	rpo := g.ReversePostorder()
	order := make([]int, n) // block -> rpo position
	for pos, b := range rpo {
		order[b] = pos
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// PostDominators computes immediate postdominators over the reverse CFG
// with a virtual exit node. The virtual exit has ID len(Blocks); every
// block with no successors (and, to handle infinite loops, every block
// unreachable in the reverse traversal) is attached to it. The returned
// slice has len(Blocks)+1 entries; ipdom[virtualExit] = virtualExit.
func (g *Graph) PostDominators() []int {
	n := len(g.Blocks)
	exit := n
	// Reverse graph adjacency.
	rsucc := make([][]int, n+1) // reverse successors = original preds
	rpred := make([][]int, n+1) // reverse preds = original succs
	for _, b := range g.Blocks {
		if len(b.Succs) == 0 {
			rsucc[exit] = append(rsucc[exit], b.ID)
			rpred[b.ID] = append(rpred[b.ID], exit)
		}
		for _, s := range b.Succs {
			rsucc[s] = append(rsucc[s], b.ID)
			rpred[b.ID] = append(rpred[b.ID], s)
		}
	}
	// Postorder from virtual exit over the reverse graph. Blocks that
	// cannot reach any exit (infinite loops) are attached to the virtual
	// exit directly so every block gets a postdominator.
	visited := make([]bool, n+1)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range rsucc[b] {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(exit)
	for b := 0; b < n; b++ {
		if !visited[b] && (b == 0 || len(g.Blocks[b].Preds) > 0) {
			rsucc[exit] = append(rsucc[exit], b)
			rpred[b] = append(rpred[b], exit)
			post = nil
			for i := range visited {
				visited[i] = false
			}
			dfs(exit)
		}
	}
	rpo := make([]int, 0, n+1)
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	order := make([]int, n+1)
	for i := range order {
		order[i] = -1
	}
	for pos, b := range rpo {
		order[b] = pos
	}
	ipdom := make([]int, n+1)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[exit] = exit
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = ipdom[a]
			}
			for order[b] > order[a] {
				b = ipdom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == exit {
				continue
			}
			newI := -1
			for _, p := range rpred[b] {
				if order[p] == -1 || ipdom[p] == -1 {
					continue
				}
				if newI == -1 {
					newI = p
				} else {
					newI = intersect(newI, p)
				}
			}
			if newI != -1 && ipdom[b] != newI {
				ipdom[b] = newI
				changed = true
			}
		}
	}
	return ipdom
}

// DominatorSets materializes, for each block, the set of blocks dominating
// it (including itself), derived from the idom tree. Unreachable blocks
// get nil.
func (g *Graph) DominatorSets() []map[int]bool {
	idom := g.Dominators()
	out := make([]map[int]bool, len(g.Blocks))
	for b := range g.Blocks {
		if idom[b] == -1 && b != 0 {
			continue
		}
		set := map[int]bool{b: true}
		for d := b; d != 0; d = idom[d] {
			if idom[d] == -1 {
				break
			}
			set[idom[d]] = true
		}
		out[b] = set
	}
	return out
}

// InstrDominates reports whether instruction i dominates instruction j:
// every path from entry to j passes through i.
func (g *Graph) InstrDominates(domSets []map[int]bool, i, j int) bool {
	bi, bj := g.BlockOf[i], g.BlockOf[j]
	if bi == bj {
		return i <= j
	}
	if domSets[bj] == nil {
		return false
	}
	return domSets[bj][bi]
}
