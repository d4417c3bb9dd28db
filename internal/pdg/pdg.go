// Package pdg builds the Program Dependence Graph of an IR function in
// the general, CFG-based way (Ferrante, Ottenstein & Warren, TOPLAS 1987):
// control dependences come from postdominance, region nodes factor shared
// control-dependence sets, and data-dependence edges connect definitions
// to reachable uses.
//
// The allocator itself (package rap) uses the syntactic region tree the
// lowerer builds — one region per source statement, as pdgcc did. This
// package provides the *semantic* construction the paper's Section 2.2
// describes, and the tests cross-check the two on structured programs.
package pdg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// NodeKind classifies PDG nodes.
type NodeKind int

// Node kinds.
const (
	NodeEntry NodeKind = iota
	NodeRegion
	NodePredicate
	NodeStatement
)

func (k NodeKind) String() string {
	switch k {
	case NodeEntry:
		return "entry"
	case NodeRegion:
		return "region"
	case NodePredicate:
		return "predicate"
	case NodeStatement:
		return "statement"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// CondKey identifies one control condition: a predicate node (or the
// entry) together with the branch outcome under which control flows.
type CondKey struct {
	// Pred is the PDG node ID of the predicate (or entry) node.
	Pred int
	// Label is "T", "F", or "" for the unconditional entry condition.
	Label string
}

// Node is one PDG node.
type Node struct {
	ID   int
	Kind NodeKind
	// Block is the CFG basic block this statement/predicate node
	// represents (-1 for entry/region nodes).
	Block int
	// Conds is the set of control conditions the node is executed under
	// (its control-dependence set), sorted.
	Conds []CondKey
	// Label is a human-readable description.
	Label string
}

// EdgeKind distinguishes control from data dependence edges.
type EdgeKind int

// Edge kinds.
const (
	EdgeControl EdgeKind = iota
	EdgeData
)

// Edge is a PDG edge.
type Edge struct {
	From, To int
	Kind     EdgeKind
	// Label carries the branch outcome for control edges ("T"/"F"/"").
	// Data edges carry the register that flows along the edge.
	Label string
}

// Graph is a Program Dependence Graph.
type Graph struct {
	Func  *ir.Function
	CFG   *cfg.Graph
	Nodes []*Node
	Edges []Edge

	entry int
	// blockNode[b] is the statement/predicate node for block b.
	blockNode []int
}

// NodeOfBlock returns the node ID representing basic block b.
func (g *Graph) NodeOfBlock(b int) int { return g.blockNode[b] }

// Build constructs the PDG of f.
func Build(f *ir.Function) (*Graph, error) {
	cg, err := cfg.Build(f)
	if err != nil {
		return nil, err
	}
	g := &Graph{Func: f, CFG: cg}

	// Entry node.
	entry := &Node{ID: 0, Kind: NodeEntry, Block: -1, Label: "ENTRY " + f.Name}
	g.Nodes = append(g.Nodes, entry)
	g.entry = 0

	// One statement or predicate node per basic block.
	g.blockNode = make([]int, len(cg.Blocks))
	for _, b := range cg.Blocks {
		kind := NodeStatement
		if last := f.Instrs[b.End-1]; last.Op == ir.OpCBr {
			kind = NodePredicate
		}
		n := &Node{ID: len(g.Nodes), Kind: kind, Block: b.ID, Label: blockLabel(f, b)}
		g.blockNode[b.ID] = n.ID
		g.Nodes = append(g.Nodes, n)
	}

	// Control dependence via postdominance (FOW): for each CFG edge
	// (a -> b) where b does not postdominate a, every block on the
	// postdominator-tree path from b up to (exclusive) ipdom(a) is
	// control dependent on (a, label(a->b)).
	ipdom := cg.PostDominators()
	conds := make(map[int]map[CondKey]bool, len(cg.Blocks)) // block -> cond set
	for b := range cg.Blocks {
		conds[b] = map[CondKey]bool{}
	}
	addDep := func(a int, label string, b int) {
		key := CondKey{Pred: g.blockNode[a], Label: label}
		stop := ipdom[a]
		for runner := b; runner != stop && runner != len(cg.Blocks); runner = ipdom[runner] {
			conds[runner][key] = true
			if runner == ipdom[runner] {
				break
			}
		}
	}
	for _, a := range cg.Blocks {
		last := f.Instrs[a.End-1]
		for _, b := range a.Succs {
			if ipdom[a.ID] == b {
				// b postdominates a via the tree edge; even so, b is
				// control dependent on a only if b does not postdominate
				// a — the tree parent check handles that.
				continue
			}
			label := ""
			if last.Op == ir.OpCBr {
				labels := g.Func.LabelIndex()
				if t, ok := labels[last.Label]; ok && cg.BlockOf[t] == b {
					label = "T"
				} else {
					label = "F"
				}
			}
			addDep(a.ID, label, b)
		}
	}
	// Augmented entry (FOW): a virtual ENTRY node has edges to the start
	// block and to EXIT, so every block on the postdominator-tree path
	// from the start block to the virtual exit is control dependent on
	// ENTRY. This is what gives a loop header the paper's R2 condition
	// set {entry, (P,T)} — "entering the loop or looping back".
	if len(cg.Blocks) > 0 {
		exit := len(cg.Blocks)
		entryKey := CondKey{Pred: g.entry, Label: ""}
		for runner := 0; runner != exit; runner = ipdom[runner] {
			conds[runner][entryKey] = true
			if runner == ipdom[runner] {
				break
			}
		}
	}

	// Region nodes: one per distinct control-dependence set, grouping all
	// blocks executed under the same conditions. Common subsets are
	// factored hierarchically: a singleton region hangs directly off its
	// predicate (or the entry), a composite region hangs off the regions
	// of its singleton conditions — so after insertion "each predicate
	// node has at most one true outgoing edge and one false outgoing
	// edge" (§2.2).
	regions := map[string]int{}
	var regionFor func(set []CondKey) int
	regionFor = func(set []CondKey) int {
		key := condSetKey(set)
		if id, ok := regions[key]; ok {
			return id
		}
		n := &Node{
			ID:    len(g.Nodes),
			Kind:  NodeRegion,
			Block: -1,
			Conds: set,
			Label: fmt.Sprintf("R%d", len(regions)+1),
		}
		g.Nodes = append(g.Nodes, n)
		regions[key] = n.ID
		if len(set) == 1 {
			g.Edges = append(g.Edges, Edge{From: set[0].Pred, To: n.ID, Kind: EdgeControl, Label: set[0].Label})
		} else {
			for _, c := range set {
				sub := regionFor([]CondKey{c})
				g.Edges = append(g.Edges, Edge{From: sub, To: n.ID, Kind: EdgeControl})
			}
		}
		return n.ID
	}
	for _, b := range sortedBlocks(cg) {
		set := condSlice(conds[b])
		if len(set) == 0 {
			continue // unreachable block
		}
		rid := regionFor(set)
		bn := g.Nodes[g.blockNode[b]]
		bn.Conds = set
		g.Edges = append(g.Edges, Edge{From: rid, To: g.blockNode[b], Kind: EdgeControl})
	}

	// Data dependence edges: definition sites to the uses they reach.
	du := dataflow.ComputeDefUse(cg)
	seen := map[[3]int]bool{}
	for r := ir.Reg(1); int(r) < du.NumRegs; r++ {
		for _, d := range du.Defs(r) {
			for _, u := range du.ReachedUses([]int{d}, r, nil) {
				from, to := g.blockNode[cg.BlockOf[d]], g.blockNode[cg.BlockOf[u]]
				k := [3]int{from, to, int(r)}
				if seen[k] {
					continue
				}
				seen[k] = true
				g.Edges = append(g.Edges, Edge{From: from, To: to, Kind: EdgeData, Label: r.String()})
			}
		}
	}
	sortEdges(g.Edges)
	return g, nil
}

func sortedBlocks(cg *cfg.Graph) []int {
	out := make([]int, len(cg.Blocks))
	for i := range out {
		out[i] = i
	}
	return out
}

func condSlice(set map[CondKey]bool) []CondKey {
	out := make([]CondKey, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Label < out[j].Label
	})
	return out
}

func condSetKey(set []CondKey) string {
	parts := make([]string, len(set))
	for i, c := range set {
		parts[i] = fmt.Sprintf("%d:%s", c.Pred, c.Label)
	}
	return strings.Join(parts, ",")
}

func sortEdges(edges []Edge) {
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Label < edges[j].Label
	})
}

func blockLabel(f *ir.Function, b *cfg.Block) string {
	var parts []string
	for i := b.Start; i < b.End && len(parts) < 3; i++ {
		if f.Instrs[i].Op == ir.OpLabel {
			continue
		}
		parts = append(parts, f.Instrs[i].String())
	}
	if b.End-b.Start > 3 {
		parts = append(parts, "...")
	}
	if len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("B%d", b.ID))
	}
	return fmt.Sprintf("B%d: %s", b.ID, strings.Join(parts, "; "))
}

// ControlChildren returns the IDs of nodes control-dependent on node id
// (direct successors via control edges), sorted.
func (g *Graph) ControlChildren(id int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.Kind == EdgeControl && e.From == id {
			out = append(out, e.To)
		}
	}
	sort.Ints(out)
	return out
}

// RegionOfBlock returns the region node that block b hangs off.
func (g *Graph) RegionOfBlock(b int) int {
	node := g.blockNode[b]
	for _, e := range g.Edges {
		if e.Kind == EdgeControl && e.To == node && g.Nodes[e.From].Kind == NodeRegion {
			return e.From
		}
	}
	return -1
}

// String renders a deterministic text form of the PDG.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "node %d %s", n.ID, n.Kind)
		if n.Block >= 0 {
			fmt.Fprintf(&b, " block=%d", n.Block)
		}
		if len(n.Conds) > 0 {
			fmt.Fprintf(&b, " conds=%s", condSetKey(n.Conds))
		}
		fmt.Fprintf(&b, " %q\n", n.Label)
	}
	for _, e := range g.Edges {
		kind := "ctrl"
		if e.Kind == EdgeData {
			kind = "data"
		}
		fmt.Fprintf(&b, "edge %d -> %d %s %q\n", e.From, e.To, kind, e.Label)
	}
	return b.String()
}

// DOT renders the PDG in Graphviz format: control edges solid (labelled
// T/F), data edges dashed, region nodes as circles, predicates as
// diamonds.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph pdg_%s {\n", g.Func.Name)
	b.WriteString("  node [fontname=\"monospace\"];\n")
	for _, n := range g.Nodes {
		shape := "box"
		switch n.Kind {
		case NodeEntry:
			shape = "house"
		case NodeRegion:
			shape = "circle"
		case NodePredicate:
			shape = "diamond"
		}
		label := n.Label
		if n.Kind == NodeRegion {
			label = n.Label
		}
		fmt.Fprintf(&b, "  n%d [shape=%s,label=%q];\n", n.ID, shape, label)
	}
	for _, e := range g.Edges {
		attrs := fmt.Sprintf("label=%q", e.Label)
		if e.Kind == EdgeData {
			attrs += ",style=dashed,color=gray40"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", e.From, e.To, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
