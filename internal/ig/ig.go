// Package ig implements the interference graph used by both allocators.
//
// A node represents a set of virtual registers that the allocation has
// decided can share one physical register — initially singletons; RAP's
// combine step (§3.1.5) merges all same-coloured nodes of a region's graph
// so that the summary handed to the parent region has at most k nodes.
//
// The graph is a dense arena: nodes carry stable integer ids assigned in
// creation order, adjacency is one bitset row per node (indexed by
// neighbour id), and the hot operations — edge insertion, Clone, Merge,
// Combine and the simplify/select colouring — are slice-and-bitset work
// with no maps. The Fig. 2 loop (build → colour → spill → combine) runs
// once per PDG region, so this representation is the hottest code in
// the pipeline.
//
// Registers are found without a map either. A small graph (RAP's
// combined summaries have at most k nodes) searches its nodes' sorted
// member lists; a larger one indexes its registers in a Table, a slice
// indexed by register number. A caller that builds many graphs in turn
// keeps one Table and builds each graph on it (NewOn), so no graph
// allocates an index of its own.
//
// Invariants: an adjacency row only ever holds ids of live nodes (Merge
// and Remove scrub the dying node's id from every neighbour's row before
// freeing its slot), and a graph's Table maps exactly its members to
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

// Graph is an interference graph.
type Graph struct {
	// nodes is the arena, indexed by node id; slots of merged or removed
	// nodes are nil and ids are never reused within one graph's lifetime.
	nodes []*Node
	live  int
	// tab indexes the members by register; nil while the graph looks
	// registers up by searching its nodes.
	tab *Table
}

// tableMin is the node count up to which a graph without a Table
// searches its nodes' member lists instead of building one.
const tableMin = 16

// Table maps registers to the nodes of one graph at a time: byReg[r] is
// the node containing r, nil for registers outside the graph. A graph
// built on a Table with NewOn uses it until a later graph is built on
// it; the earlier graph then falls back to searching its nodes, or to a
// Table of its own once it has more than tableMin nodes. The zero Table
// is empty and ready to use.
type Table struct {
	byReg []*Node
	owner *Graph
}

// set records r's node, growing the table to cover r. The table's
// length is always its capacity, so a grown tail is all nil.
func (t *Table) set(r ir.Reg, n *Node) {
	if int(r) >= len(t.byReg) {
		t.byReg = slices.Grow(t.byReg, int(r)+1-len(t.byReg))
		t.byReg = t.byReg[:cap(t.byReg)]
	}
	t.byReg[r] = n
}

// New returns an empty graph. It indexes its registers in a Table of its
// own once it has more than tableMin nodes.
func New() *Graph { return &Graph{} }

// NewOn returns an empty graph that indexes its registers in t, taking t
// over from the graph built on it before.
func NewOn(t *Table) *Graph {
	g := &Graph{}
	g.attach(t)
	return g
}

// attach makes t g's table: t's previous graph loses it, and t indexes
// g's members.
func (g *Graph) attach(t *Table) {
	if prev := t.owner; prev != nil && prev != g {
		for _, n := range prev.nodes {
			if n != nil {
				for _, r := range n.Regs {
					t.byReg[r] = nil
				}
			}
		}
		prev.tab = nil
	}
	t.owner = g
	g.tab = t
	for _, n := range g.nodes {
		if n != nil {
			for _, r := range n.Regs {
				t.set(r, n)
			}
		}
	}
}

// index records n as r's node in the graph's table, if it has one.
func (g *Graph) index(r ir.Reg, n *Node) {
	if g.tab != nil {
		g.tab.set(r, n)
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.live }

// NodeOf returns the node containing r, or nil.
func (g *Graph) NodeOf(r ir.Reg) *Node {
	if g.tab == nil {
		if g.live <= tableMin {
			for _, n := range g.nodes {
				if n != nil && n.Has(r) {
					return n
				}
			}
			return nil
		}
		g.attach(&Table{})
	}
	if uint(r) < uint(len(g.tab.byReg)) {
		return g.tab.byReg[r]
	}
	return nil
}

// newNode appends a node to the arena.
func (g *Graph) newNode(regs []ir.Reg) *Node {
	n := &Node{Regs: regs, g: g, id: len(g.nodes)}
	g.nodes = append(g.nodes, n)
	g.live++
	for _, r := range regs {
		g.index(r, n)
	}
	return n
}

// Ensure returns the node containing r, creating a singleton if needed.
func (g *Graph) Ensure(r ir.Reg) *Node {
	if n := g.NodeOf(r); n != nil {
		return n
	}
	return g.newNode([]ir.Reg{r})
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
	if g.tab != nil {
		g.tab.byReg[old] = nil
		g.tab.set(new, n)
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
	degree := make([]int32, slots)
	removed := make([]bool, slots)
	for _, n := range g.nodes {
		if n == nil {
			continue
		}
		n.Color = 0
		degree[n.id] = int32(n.adj.Len())
	}

	trivial := nodeHeap{less: func(a, b *Node) bool { return a.Key() < b.Key() }}
	trivial.items = make([]*Node, 0, g.live)
	for _, n := range g.nodes {
		if n != nil && degree[n.id] < int32(k) {
			trivial.push(n)
		}
	}
	// The spill heap is built lazily: colourable graphs never need it.
	var spillH *nodeHeap

	stack := make([]*Node, 0, g.live)
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
				spillH = &nodeHeap{less: func(a, b *Node) bool {
					if a.SpillCost != b.SpillCost {
						return a.SpillCost < b.SpillCost
					}
					return a.Key() < b.Key()
				}}
				spillH.items = make([]*Node, 0, int(remaining))
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

	var res ColorResult
	globalColors := make([]bool, k+1)
	used := make([]int32, k+1)
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

// Combine merges all same-coloured nodes of a coloured graph into single
// nodes (§3.1.5), producing a graph with at most k nodes. Uncoloured
// nodes (spilled ones) are dropped. The colours survive on the combined
// nodes.
func (g *Graph) Combine() *Graph {
	out := New()
	nodes := g.Nodes()
	maxColor := 0
	for _, n := range nodes {
		maxColor = max(maxColor, n.Color)
	}
	byColor := make([]*Node, maxColor+1)
	for _, n := range nodes {
		if n.Color == 0 {
			continue
		}
		target := byColor[n.Color]
		if target == nil {
			target = out.newNode(append([]ir.Reg(nil), n.Regs...))
			target.Color = n.Color
			target.Global = n.Global
			byColor[n.Color] = target
		} else {
			// Members are disjoint across nodes; they are sorted below.
			target.Regs = append(target.Regs, n.Regs...)
			target.Global = target.Global || n.Global
		}
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
