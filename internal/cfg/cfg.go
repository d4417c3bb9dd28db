// Package cfg builds the control-flow graph of an IR function: its basic
// blocks and their edges, each instruction's uses and definition, and
// postdominance.
package cfg

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Graph is the control-flow graph of one function. It holds basic blocks
// only: an instruction's successors are the next instruction in its
// block, or, for the block's last instruction, the first instructions of
// the successor blocks (Succs and Preds derive them).
type Graph struct {
	F *ir.Function

	// Blocks partitions the instructions into basic blocks.
	Blocks []*Block
	// BlockOf[i] is the index of the block containing instruction i.
	BlockOf []int

	// The operand table, filled in the pass that indexes the labels and
	// read by liveness and def-use: the registers instruction i reads,
	// each once, are useFlat[useAt[i]:useAt[i+1]], and defs[i] is the
	// register it writes.
	defs    []ir.Reg
	useAt   []int32
	useFlat []ir.Reg

	// Storage behind the exported views, kept for Rebuild: the block
	// structs Blocks points at, the arena of block edge lists, each
	// block's predecessor count, and the label index.
	blocks []Block
	edges  []int
	indeg  []int
	labels map[string]int
}

// Block is a basic block: the half-open instruction range [Start, End).
type Block struct {
	ID         int
	Start, End int
	Succs      []int // successor block IDs
	Preds      []int // predecessor block IDs, ascending
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
	// One pass over the instructions: the label index, the block count,
	// and the operand table. An instruction that reads a register twice
	// records it once.
	g.defs = resize(g.defs, n)
	g.useAt = resize(g.useAt, n+1)
	g.useAt[0] = 0
	flat := g.useFlat[:0]
	nb := 0
	for i, in := range f.Instrs {
		if in.Op == ir.OpLabel {
			g.labels[in.Label] = i
		}
		if g.leader(i) {
			nb++
		}
		// Append i's operands, then keep the first of each register in
		// place: the kept prefix never overtakes the operand it reads.
		start := len(flat)
		flat = in.Uses(flat)
		uses := flat[start:]
		flat = flat[:start]
		for _, u := range uses {
			if !slices.Contains(flat[start:], u) {
				flat = append(flat, u)
			}
		}
		g.useAt[i+1] = int32(len(flat))
		g.defs[i] = in.Def()
	}
	g.useFlat = flat
	// Cut the blocks.
	g.BlockOf = resize(g.BlockOf, n)
	g.blocks = resize(g.blocks, nb)
	g.Blocks = resize(g.Blocks, nb)
	b := -1
	for i := range f.Instrs {
		if g.leader(i) {
			b++
			g.blocks[b] = Block{ID: b, Start: i}
			g.Blocks[b] = &g.blocks[b]
		}
		g.blocks[b].End = i + 1
		g.BlockOf[i] = b
	}
	// A block's successors follow from its last instruction: a branch's
	// targets, in label order, else the next block. Distinct label names
	// name distinct instructions, so a cbr has two successors exactly
	// when its labels differ. A block has at most two successors, so the
	// arena is sized for two of each kind per block.
	g.edges = resize(g.edges, 4*nb)
	g.indeg = resize(g.indeg, nb)
	clear(g.indeg)
	at := 0
	for i := range g.blocks {
		blk := &g.blocks[i]
		s := g.edges[at:at]
		switch last := f.Instrs[blk.End-1]; last.Op {
		case ir.OpJump:
			t, ok := g.labels[last.Label]
			if !ok {
				return nil, fmt.Errorf("%s: jump to unknown label %q", f.Name, last.Label)
			}
			s = append(s, g.BlockOf[t])
		case ir.OpCBr:
			t1, ok1 := g.labels[last.Label]
			t2, ok2 := g.labels[last.Label2]
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("%s: cbr to unknown label %q/%q", f.Name, last.Label, last.Label2)
			}
			s = append(s, g.BlockOf[t1])
			if t1 != t2 {
				s = append(s, g.BlockOf[t2])
			}
		case ir.OpRet:
			// no successors
		default:
			if blk.End < n {
				s = append(s, i+1)
			}
		}
		blk.Succs = s[:len(s):len(s)]
		at += len(s)
		for _, t := range s {
			g.indeg[t]++
		}
	}
	// Predecessors, ascending: each block's list gets exactly its
	// in-degree of room, and the blocks, visited in order, append
	// themselves to their successors' lists.
	for i := range g.blocks {
		g.blocks[i].Preds = g.edges[at : at : at+g.indeg[i]]
		at += g.indeg[i]
	}
	for i := range g.blocks {
		for _, t := range g.blocks[i].Succs {
			g.blocks[t].Preds = append(g.blocks[t].Preds, i)
		}
	}
	return g, nil
}

// leader reports whether instruction i starts a basic block: the entry,
// a label, or the instruction after a branch.
func (g *Graph) leader(i int) bool {
	return i == 0 || g.F.Instrs[i].Op == ir.OpLabel || g.F.Instrs[i-1].IsBranch()
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Uses returns the registers instruction i reads, each once, in operand
// order. The slice belongs to g and must not be modified.
func (g *Graph) Uses(i int) []ir.Reg { return g.useFlat[g.useAt[i]:g.useAt[i+1]:g.useAt[i+1]] }

// Def returns the register instruction i writes, or ir.None.
func (g *Graph) Def(i int) ir.Reg { return g.defs[i] }

// Succs appends to dst the instructions control may reach immediately
// after instruction i executes and returns the extended slice: the next
// instruction in i's block, or, when i ends it, the first instruction of
// each successor block.
func (g *Graph) Succs(dst []int, i int) []int {
	blk := g.Blocks[g.BlockOf[i]]
	if i+1 < blk.End {
		return append(dst, i+1)
	}
	for _, s := range blk.Succs {
		dst = append(dst, g.Blocks[s].Start)
	}
	return dst
}

// Preds appends to dst the instructions that may execute immediately
// before instruction i and returns the extended slice: the previous
// instruction in i's block, or, when i starts it, the last instruction
// of each predecessor block, ascending.
func (g *Graph) Preds(dst []int, i int) []int {
	blk := g.Blocks[g.BlockOf[i]]
	if i > blk.Start {
		return append(dst, i-1)
	}
	for _, p := range blk.Preds {
		dst = append(dst, g.Blocks[p].End-1)
	}
	return dst
}

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
