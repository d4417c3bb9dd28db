// Package ig implements the interference graph used by both allocators.
//
// A node represents a set of virtual registers that the allocation has
// decided can share one physical register — initially singletons; RAP's
// combine step (§3.1.5) merges all same-coloured nodes of a region's graph
// so that the summary handed to the parent region has at most k nodes.
//
// The graph is a dense arena: nodes carry stable integer ids assigned in
// creation order, adjacency is one bitset row per node (indexed by
// neighbour id), and the hot operations — edge insertion, Merge, Combine
// and the simplify/select colouring — are slice-and-bitset work with no
// maps. The Fig. 2 loop (build → colour → spill → combine) runs once per
// PDG region, and GRA rebuilds its whole-function graph after every
// spill round, so this representation is the hottest code in the
// pipeline.
//
// A graph is reusable: Reset empties it but keeps its storage — the node
// structs with their member lists and adjacency rows (handed out again
// by id), the register index and Color's scratch arrays — so an
// allocator that builds one graph per round or per region and keeps one
// Graph allocates nothing once the graph has grown to its largest size.
//
// Registers are found without a map either. A small graph (RAP's
// combined summaries have at most k nodes) searches its nodes' sorted
// member lists; once a graph has more than indexMin nodes it indexes its
// registers in a slice indexed by register number, and keeps that index
// through Reset.
//
// Invariants: an adjacency row only ever holds ids of live nodes (Merge
// scrubs the dying node's id from every neighbour's row before freeing
// its slot), and an indexed graph's index maps exactly its members to
// their nodes.
package ig

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/ir"
)

// Node is one interference graph node.
type Node struct {
	// Regs holds the member virtual registers, sorted ascending.
	Regs []ir.Reg
	// SpillCost is the Chaitin-style cost of spilling this node;
	// math.Inf(1) marks nodes that must not be spilled.
	SpillCost float64
	// Color is the assigned colour (1-based) or 0 if uncoloured.
	Color int
	// Global marks nodes containing a register that is global to the
	// region under allocation (referenced outside it). Two global nodes
	// may never share a colour (§3.1.3).
	Global bool

	// g/id tie the node to its graph's arena; adj is the bitset row of
	// interfering node ids. A free-standing node (g == nil, as some tests
	// construct) has no adjacency and degree 0.
	g   *Graph
	id  int
	adj bitset.Set
}

// Key is the smallest member register; it identifies the node
// deterministically within a graph.
func (n *Node) Key() ir.Reg {
	if len(n.Regs) == 0 {
		return ir.None
	}
	return n.Regs[0]
}

// Has reports whether r is a member of the node.
func (n *Node) Has(r ir.Reg) bool {
	_, ok := slices.BinarySearch(n.Regs, r)
	return ok
}

// Degree is the number of interfering nodes.
func (n *Node) Degree() int { return n.adj.Len() }

// Adjacent reports whether m interferes with n.
func (n *Node) Adjacent(m *Node) bool {
	if m == nil || n.g == nil || n.g != m.g {
		return false
	}
	return n.adj.Has(m.id)
}

// ForEachAdj calls f for every node adjacent to n, in ascending id order
// (ids follow node creation order, so the iteration is deterministic —
// unlike the map ranging this replaced).
func (n *Node) ForEachAdj(f func(*Node)) {
	if n.g == nil {
		return
	}
	n.adj.ForEach(func(id int) { f(n.g.nodes[id]) })
}

func (n *Node) addReg(r ir.Reg) {
	if i, ok := slices.BinarySearch(n.Regs, r); !ok {
		n.Regs = slices.Insert(n.Regs, i, r)
	}
}

// Graph is an interference graph. The zero Graph is empty and ready to
// use.
type Graph struct {
	// nodes is the arena, indexed by node id; slots of merged nodes are
	// nil, and ids are not reused until Reset.
	nodes []*Node
	live  int
	// store holds a node struct for every id the graph has handed out
	// since it was made; newNode takes store[id] for a node of id id,
	// reusing its member list and adjacency row.
	store []*Node
	// byReg indexes the members by register (byReg[r] is r's node, nil
	// for registers outside the graph) once indexed is set; until then
	// the graph looks registers up by searching its nodes.
	byReg   []*Node
	indexed bool

	// Color's scratch, reused by every call.
	degree          []int32
	removed         []bool
	stack           []*Node
	trivial, spillH nodeHeap
	globalColors    []bool
	used            []int32
}

// indexMin is the node count up to which a graph that has no register
// index searches its nodes' member lists instead of building one.
const indexMin = 16

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Reset empties g for a new build. It keeps g's storage: node structs,
// their member lists and adjacency rows, the register index and Color's
// scratch. Nodes taken from g before the call must not be used after
// it.
func (g *Graph) Reset() {
	if g.indexed {
		for _, n := range g.nodes {
			if n != nil {
				for _, r := range n.Regs {
					g.byReg[r] = nil
				}
			}
		}
	}
	g.nodes = g.nodes[:0]
	g.live = 0
}

// index records n as r's node, if g keeps an index, growing the index
// to cover r. The index's length is always its capacity, so a grown tail
// is all nil.
func (g *Graph) index(r ir.Reg, n *Node) {
	if !g.indexed {
		return
	}
	if int(r) >= len(g.byReg) {
		g.byReg = slices.Grow(g.byReg, int(r)+1-len(g.byReg))
		g.byReg = g.byReg[:cap(g.byReg)]
	}
	g.byReg[r] = n
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.live }

// NodeOf returns the node containing r, or nil.
func (g *Graph) NodeOf(r ir.Reg) *Node {
	if !g.indexed {
		if g.live <= indexMin {
			for _, n := range g.nodes {
				if n != nil && n.Has(r) {
					return n
				}
			}
			return nil
		}
		g.indexed = true
		for _, n := range g.nodes {
			if n != nil {
				for _, r := range n.Regs {
					g.index(r, n)
				}
			}
		}
	}
	if uint(r) < uint(len(g.byReg)) {
		return g.byReg[r]
	}
	return nil
}

// newNode adds a node holding r alone to the arena, reusing the struct
// of the node that last had its id.
func (g *Graph) newNode(r ir.Reg) *Node {
	id := len(g.nodes)
	if id == len(g.store) {
		// One block of structs, and one of single-member lists, per
		// growth step.
		grow := max(8, len(g.store)/2)
		blk := make([]Node, grow)
		regs := make([]ir.Reg, grow)
		for i := range blk {
			blk[i].Regs = regs[i : i : i+1]
			g.store = append(g.store, &blk[i])
		}
	}
	n := g.store[id]
	n.Regs = append(n.Regs[:0], r)
	n.SpillCost, n.Color, n.Global = 0, 0, false
	n.g, n.id = g, id
	n.adj.Clear()
	g.nodes = append(g.nodes, n)
	g.live++
	g.index(r, n)
	return n
}

// Ensure returns the node containing r, creating a singleton if needed.
func (g *Graph) Ensure(r ir.Reg) *Node {
	if n := g.NodeOf(r); n != nil {
		return n
	}
	return g.newNode(r)
}

// AddEdge records an interference between the nodes of a and b
// (creating the nodes if necessary). Self-edges are ignored.
func (g *Graph) AddEdge(a, b ir.Reg) {
	na, nb := g.Ensure(a), g.Ensure(b)
	g.AddNodeEdge(na, nb)
}

// AddNodeEdge records an interference between two existing nodes.
func (g *Graph) AddNodeEdge(na, nb *Node) {
	if na == nb {
		return
	}
	na.adj.Grow(nb.id + 1)
	na.adj.Add(nb.id)
	nb.adj.Grow(na.id + 1)
	nb.adj.Add(na.id)
}

// Interferes reports whether registers a and b are in interfering nodes.
func (g *Graph) Interferes(a, b ir.Reg) bool {
	na, nb := g.NodeOf(a), g.NodeOf(b)
	if na == nil || nb == nil || na == nb {
		return false
	}
	return na.adj.Has(nb.id)
}

// Nodes returns the nodes sorted by Key for deterministic iteration.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, g.live)
	for _, n := range g.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	slices.SortFunc(out, func(a, b *Node) int { return cmp.Compare(a.Key(), b.Key()) })
	return out
}

// NodesByID returns the live nodes in arena (creation) order.
func (g *Graph) NodesByID() []*Node {
	out := make([]*Node, 0, g.live)
	for _, n := range g.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// Merge folds node b into node a: membership and adjacency are unioned.
// It is a no-op when a == b.
func (g *Graph) Merge(a, b *Node) {
	if a == b {
		return
	}
	for _, r := range b.Regs {
		a.addReg(r)
		g.index(r, a)
	}
	b.adj.ForEach(func(id int) {
		nb := g.nodes[id]
		nb.adj.Remove(b.id)
		if nb != a {
			g.AddNodeEdge(a, nb)
		}
	})
	a.Global = a.Global || b.Global
	g.nodes[b.id] = nil
	g.live--
	b.g = nil
}

// AddRegToNode makes r a member of node n. If r already belongs to a
// different node, the two nodes are merged into n.
func (g *Graph) AddRegToNode(n *Node, r ir.Reg) {
	if existing := g.NodeOf(r); existing != nil {
		if existing != n {
			g.Merge(n, existing)
		}
		return
	}
	n.addReg(r)
	g.index(r, n)
}

// RenameReg replaces register old with new inside its node (used when RAP
// renames a spilled register within a subregion, §3.1.4).
func (g *Graph) RenameReg(old, new ir.Reg) {
	n := g.NodeOf(old)
	if n == nil {
		return
	}
	i, _ := slices.BinarySearch(n.Regs, old)
	n.Regs = slices.Delete(n.Regs, i, i+1)
	j, _ := slices.BinarySearch(n.Regs, new)
	n.Regs = slices.Insert(n.Regs, j, new)
	if g.indexed {
		g.byReg[old] = nil
		g.index(new, n)
	}
}

// String renders the graph deterministically for tests and debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		regs := make([]string, len(n.Regs))
		for i, r := range n.Regs {
			regs[i] = r.String()
		}
		var adj []string
		n.ForEachAdj(func(a *Node) { adj = append(adj, a.Key().String()) })
		slices.Sort(adj)
		flags := ""
		if n.Global {
			flags = " global"
		}
		if n.Color != 0 {
			flags += fmt.Sprintf(" color=%d", n.Color)
		}
		fmt.Fprintf(&b, "{%s}%s -- [%s]\n", strings.Join(regs, ","), flags, strings.Join(adj, " "))
	}
	return b.String()
}

// DOT renders the interference graph in Graphviz format: one node per
// graph node (labelled with its member registers and colour), one
// undirected edge per interference. Global nodes are drawn with a double
// border.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph ig_%s {\n", name)
	b.WriteString("  node [shape=ellipse,fontname=\"monospace\"];\n")
	idOf := map[*Node]int{}
	for i, n := range g.Nodes() {
		idOf[n] = i
		regs := make([]string, len(n.Regs))
		for j, r := range n.Regs {
			regs[j] = r.String()
		}
		label := strings.Join(regs, ",")
		if n.Color != 0 {
			label += fmt.Sprintf("\\nc%d", n.Color)
		}
		attrs := fmt.Sprintf("label=%q", label)
		if n.Global {
			attrs += ",peripheries=2"
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", i, attrs)
	}
	for _, n := range g.Nodes() {
		n.ForEachAdj(func(a *Node) {
			if idOf[n] < idOf[a] {
				fmt.Fprintf(&b, "  n%d -- n%d;\n", idOf[n], idOf[a])
			}
		})
	}
	b.WriteString("}\n")
	return b.String()
}

// Infinity is the spill cost of nodes that must not be spilled (the paper
// uses 999999; we use +Inf).
var Infinity = math.Inf(1)

// ColorResult is the outcome of a colouring attempt.
type ColorResult struct {
	// Spilled lists nodes that could not be coloured, in the order the
	// select phase failed on them.
	Spilled []*Node
}

// nodeHeap is a binary min-heap of nodes under an arbitrary order,
// hand-rolled to avoid container/heap's interface boxing on the colouring
// hot path.
type nodeHeap struct {
	items []*Node
	less  func(a, b *Node) bool
}

func (h *nodeHeap) push(n *Node) {
	h.items = append(h.items, n)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *nodeHeap) pop() *Node {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.less(h.items[l], h.items[m]) {
			m = l
		}
		if r < last && h.less(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return top
}

// Color colours the graph with at most k colours using simplify/select
// with the Briggs et al. optimistic improvement: every node is pushed
// (cheapest-spill-cost first when no trivially colourable node remains),
// and the spill decision is deferred to the select phase (§3.1.3).
//
// When globalsDistinct is set, two Global nodes never receive the same
// colour even if they do not interfere (RAP's rule for registers live
// beyond the region).
//
// Colours are assigned first-fit — the property the paper credits for
// RAP's copy elimination (§4).
//
// The simplify phase is worklist-driven: a min-heap keyed on node Key
// holds the trivially colourable pool (degree < k), entered exactly once
// — at seeding, or the moment a neighbour's removal drops the degree to
// k-1 — so each pick is O(log n) instead of the previous full rescan.
// Ordering is identical to the old scan: always the lowest-keyed
// trivially colourable node. The optimistic fallback pops a second heap
// ordered by (SpillCost, Key) — a single pass replacing the old two-arm
// scan, with the lowest key breaking spill-cost ties deterministically.
func (g *Graph) Color(k int, globalsDistinct bool) ColorResult {
	slots := len(g.nodes)
	g.degree = resize(g.degree, slots)
	g.removed = resize(g.removed, slots)
	degree, removed := g.degree, g.removed
	clear(removed)
	for _, n := range g.nodes {
		if n == nil {
			continue
		}
		n.Color = 0
		degree[n.id] = int32(n.adj.Len())
	}

	trivial := &g.trivial
	trivial.less = keyLess
	trivial.items = trivial.items[:0]
	for _, n := range g.nodes {
		if n != nil && degree[n.id] < int32(k) {
			trivial.push(n)
		}
	}
	// The spill heap is filled lazily: colourable graphs never need it.
	var spillH *nodeHeap

	stack := g.stack[:0]
	push := func(n *Node) {
		removed[n.id] = true
		stack = append(stack, n)
		n.adj.ForEach(func(id int) {
			if removed[id] {
				return
			}
			degree[id]--
			if degree[id] == int32(k)-1 {
				trivial.push(g.nodes[id])
			}
		})
	}
	for remaining := g.live; remaining > 0; remaining-- {
		// Remove a trivially colourable node (degree < k; deterministically
		// the lowest key). When none remains, push the cheapest-spill-cost
		// node anyway and let the select phase decide (optimistic
		// colouring) — this ordering is what makes "the nodes with the
		// most expensive spill cost ... colored first" (§3.1.3). On equal
		// spill costs the lowest key wins, so the victim order is a pure
		// function of the graph.
		var pick *Node
		for len(trivial.items) > 0 {
			if c := trivial.pop(); !removed[c.id] {
				pick = c
				break
			}
		}
		if pick == nil {
			if spillH == nil {
				spillH = &g.spillH
				spillH.less = costLess
				spillH.items = spillH.items[:0]
				for _, n := range g.nodes {
					if n != nil && !removed[n.id] {
						spillH.push(n)
					}
				}
			}
			for len(spillH.items) > 0 {
				if c := spillH.pop(); !removed[c.id] {
					pick = c
					break
				}
			}
		}
		push(pick)
	}
	g.stack = stack

	var res ColorResult
	g.globalColors = resize(g.globalColors, k+1)
	g.used = resize(g.used, k+1)
	globalColors, used := g.globalColors, g.used
	clear(globalColors)
	clear(used)
	var stamp int32
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		stamp++
		n.adj.ForEach(func(id int) {
			if c := g.nodes[id].Color; c >= 1 && c <= k {
				used[c] = stamp
			}
		})
		color := 0
		for c := 1; c <= k; c++ {
			if used[c] == stamp {
				continue
			}
			if globalsDistinct && n.Global && globalColors[c] {
				continue
			}
			color = c
			break
		}
		if color == 0 {
			res.Spilled = append(res.Spilled, n)
			continue
		}
		n.Color = color
		if n.Global {
			globalColors[color] = true
		}
	}
	return res
}

// keyLess orders the trivially colourable heap; costLess orders the
// optimistic spill heap, the lowest key breaking spill-cost ties.
func keyLess(a, b *Node) bool { return a.Key() < b.Key() }

func costLess(a, b *Node) bool {
	if a.SpillCost != b.SpillCost {
		return a.SpillCost < b.SpillCost
	}
	return a.Key() < b.Key()
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Combine merges all same-coloured nodes of a coloured graph into single
// nodes (§3.1.5), producing a graph with at most k nodes. Uncoloured
// nodes (spilled ones) are dropped. The colours survive on the combined
// nodes. The combined nodes, and their member lists, are allocated in
// one block each.
func (g *Graph) Combine() *Graph {
	nodes := g.Nodes()
	maxColor := 0
	for _, n := range nodes {
		maxColor = max(maxColor, n.Color)
	}
	// One node per colour, numbered in order of the colour's first
	// appearance, and each colour's member count.
	out := &Graph{nodes: make([]*Node, 0, maxColor)}
	blk := make([]Node, maxColor)
	byColor := make([]*Node, maxColor+1)
	members := make([]int, maxColor+1)
	total := 0
	for _, n := range nodes {
		if n.Color == 0 {
			continue
		}
		if byColor[n.Color] == nil {
			t := &blk[out.live]
			t.Color, t.g, t.id = n.Color, out, out.live
			out.nodes = append(out.nodes, t)
			out.live++
			byColor[n.Color] = t
		}
		members[n.Color] += len(n.Regs)
		total += len(n.Regs)
	}
	out.store = out.nodes // the store must cover every id handed out
	regs := make([]ir.Reg, total)
	off := 0
	for _, t := range out.nodes {
		t.Regs = regs[off : off : off+members[t.Color]]
		off += members[t.Color]
	}
	for _, n := range nodes {
		if n.Color == 0 {
			continue
		}
		// Members are disjoint across nodes; they are sorted below.
		target := byColor[n.Color]
		target.Regs = append(target.Regs, n.Regs...)
		target.Global = target.Global || n.Global
	}
	for _, n := range out.nodes {
		slices.Sort(n.Regs)
	}
	// Edges: combined nodes interfere if any members did.
	for _, n := range nodes {
		if n.Color == 0 {
			continue
		}
		n.ForEachAdj(func(a *Node) {
			if a.Color == 0 || a.Color == n.Color {
				return
			}
			out.AddNodeEdge(byColor[n.Color], byColor[a.Color])
		})
	}
	return out
}

// CheckColoring verifies that the colouring is proper: every node has a
// colour in [1,k], no adjacent nodes share colours, and (optionally) no
// two global nodes share a colour.
func (g *Graph) CheckColoring(k int, globalsDistinct bool) error {
	globalColors := map[int]*Node{}
	for _, n := range g.Nodes() {
		if n.Color < 1 || n.Color > k {
			return fmt.Errorf("node %s has colour %d outside [1,%d]", n.Key(), n.Color, k)
		}
		var clash *Node
		n.ForEachAdj(func(a *Node) {
			if clash == nil && a.Color == n.Color {
				clash = a
			}
		})
		if clash != nil {
			return fmt.Errorf("adjacent nodes %s and %s share colour %d", n.Key(), clash.Key(), n.Color)
		}
		if globalsDistinct && n.Global {
			if prev, ok := globalColors[n.Color]; ok && prev != n {
				return fmt.Errorf("global nodes %s and %s share colour %d", prev.Key(), n.Key(), n.Color)
			}
			globalColors[n.Color] = n
		}
	}
	return nil
}
