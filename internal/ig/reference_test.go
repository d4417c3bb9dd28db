package ig_test

// A faithful retention of the package's original pointer-map interference
// graph, kept as the oracle the dense-arena implementation is checked
// against (see property_test.go). The colouring here is the original
// O(n²) scan: each simplify step rescans the key-sorted node list for the
// first trivially colourable node, falling back to a full scan for the
// cheapest spill cost (strict <, so the first — lowest-keyed — node wins
// ties). The dense implementation's heaps must reproduce this order
// exactly.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ir"
)

type refNode struct {
	Regs      []ir.Reg
	Adj       map[*refNode]bool
	SpillCost float64
	Color     int
	Global    bool
}

func (n *refNode) Key() ir.Reg {
	if len(n.Regs) == 0 {
		return ir.None
	}
	return n.Regs[0]
}

func (n *refNode) Degree() int { return len(n.Adj) }

type refGraph struct {
	byReg map[ir.Reg]*refNode
	nodes map[*refNode]bool
}

func newRefGraph() *refGraph {
	return &refGraph{byReg: map[ir.Reg]*refNode{}, nodes: map[*refNode]bool{}}
}

func (g *refGraph) Ensure(r ir.Reg) *refNode {
	if n, ok := g.byReg[r]; ok {
		return n
	}
	n := &refNode{Regs: []ir.Reg{r}, Adj: map[*refNode]bool{}}
	g.byReg[r] = n
	g.nodes[n] = true
	return n
}

func (g *refGraph) AddEdge(a, b ir.Reg) {
	na, nb := g.Ensure(a), g.Ensure(b)
	if na == nb {
		return
	}
	na.Adj[nb] = true
	nb.Adj[na] = true
}

func (g *refGraph) NodeOf(r ir.Reg) *refNode { return g.byReg[r] }

func (n *refNode) sortRegs() {
	sort.Slice(n.Regs, func(i, j int) bool { return n.Regs[i] < n.Regs[j] })
}

// Merge folds b into a: membership, adjacency and the global flag.
func (g *refGraph) Merge(a, b *refNode) {
	if a == b {
		return
	}
	for _, r := range b.Regs {
		a.Regs = append(a.Regs, r)
		g.byReg[r] = a
	}
	a.sortRegs()
	for m := range b.Adj {
		delete(m.Adj, b)
		if m != a {
			a.Adj[m] = true
			m.Adj[a] = true
		}
	}
	a.Global = a.Global || b.Global
	delete(g.nodes, b)
}

// AddRegToNode makes r a member of n, merging r's node into n if r
// already belongs to another.
func (g *refGraph) AddRegToNode(n *refNode, r ir.Reg) {
	if existing, ok := g.byReg[r]; ok {
		if existing != n {
			g.Merge(n, existing)
		}
		return
	}
	n.Regs = append(n.Regs, r)
	n.sortRegs()
	g.byReg[r] = n
}

func (g *refGraph) RenameReg(old, new ir.Reg) {
	n, ok := g.byReg[old]
	if !ok {
		return
	}
	delete(g.byReg, old)
	for i, r := range n.Regs {
		if r == old {
			n.Regs[i] = new
		}
	}
	n.sortRegs()
	g.byReg[new] = n
}

func (g *refGraph) Nodes() []*refNode {
	out := make([]*refNode, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func (g *refGraph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		regs := make([]string, len(n.Regs))
		for i, r := range n.Regs {
			regs[i] = r.String()
		}
		var adj []string
		for a := range n.Adj {
			adj = append(adj, a.Key().String())
		}
		sort.Strings(adj)
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

// Color is the original simplify/select, verbatim modulo type names.
func (g *refGraph) Color(k int, globalsDistinct bool) (spilled []*refNode) {
	removed := map[*refNode]bool{}
	degree := map[*refNode]int{}
	for n := range g.nodes {
		degree[n] = n.Degree()
		n.Color = 0
	}
	live := len(g.nodes)
	var stack []*refNode

	nodesSorted := g.Nodes()
	push := func(n *refNode) {
		for a := range n.Adj {
			if !removed[a] {
				degree[a]--
			}
		}
		stack = append(stack, n)
		removed[n] = true
		live--
	}
	for live > 0 {
		var pick *refNode
		for _, n := range nodesSorted {
			if !removed[n] && degree[n] < k {
				pick = n
				break
			}
		}
		if pick == nil {
			best := math.Inf(1)
			for _, n := range nodesSorted {
				if removed[n] {
					continue
				}
				if pick == nil || n.SpillCost < best {
					pick = n
					best = n.SpillCost
				}
			}
		}
		push(pick)
	}

	globalColors := map[int]bool{}
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		used := map[int]bool{}
		for a := range n.Adj {
			if a.Color != 0 {
				used[a.Color] = true
			}
		}
		color := 0
		for c := 1; c <= k; c++ {
			if used[c] {
				continue
			}
			if globalsDistinct && n.Global && globalColors[c] {
				continue
			}
			color = c
			break
		}
		if color == 0 {
			spilled = append(spilled, n)
			continue
		}
		n.Color = color
		if n.Global {
			globalColors[color] = true
		}
	}
	return spilled
}
