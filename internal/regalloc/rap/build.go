package rap

import (
	"repro/internal/bitset"
	"repro/internal/ig"
	"repro/internal/ir"
)

// buildRegionGraph constructs the interference graph for region V in the
// paper's two steps: add_region_conflicts over V's own statements and
// add_subregion_conflicts (Fig. 4) to incorporate the subregions' combined
// graphs. It refills the allocator's one work graph, so the graph it
// returns is valid until the next build.
func (a *allocator) buildRegionGraph(V *ir.Region) *ig.Graph {
	gv := &a.work
	gv.Reset()
	span := a.spans[V.ID]
	own := a.ownIndices(V)

	// --- add_region_conflicts ---
	// Nodes: every register referenced by a statement the region owns
	// directly. Registers merely live through the region are deliberately
	// omitted so referenced registers get colouring priority (§3.1.1).
	// ownRefs is scratch (a bitset's ForEach ascends, preserving the
	// sorted-iteration determinism the old map needed sortRegs for).
	ownRefs := a.scratch.getSet()
	defer a.scratch.putSet(ownRefs)
	var buf []ir.Reg
	for _, i := range own {
		buf = a.refsAt(i, buf[:0])
		for _, r := range buf {
			ownRefs.Add(int(r))
		}
	}
	ownRefs.ForEach(func(ri int) { gv.Ensure(ir.Reg(ri)) })
	// Standard interferences at definition points in V's own code,
	// restricted to own-referenced registers. A copy's destination does
	// not interfere with its source (the rule that enables copy
	// elimination under first-fit colouring). The blocks of V's span are
	// walked backward from their live-out sets with one running set.
	live := a.scratch.getSet()
	defer a.scratch.putSet(live)
	if !span.Empty() {
		for b := a.g.BlockOf[span.End-1]; b >= a.g.BlockOf[span.Start]; b-- {
			blk := a.g.Blocks[b]
			live.Copy(a.lv.BlockOut(b))
			for i := blk.End - 1; i >= max(blk.Start, span.Start); i-- {
				if i < span.End && a.f.Instrs[i].Region == V.ID {
					addDefEdges(gv, a.f.Instrs[i], live, ownRefs)
				}
				a.lv.Step(live, i)
			}
		}
	}
	// The walk ended at V's first instruction, so live holds the
	// registers live on entrance to V. RAP's extra rule: any two of them
	// referenced in the region's own code interfere (§3.1.1).
	liveIn := live
	var liveInOwn []ir.Reg
	ownRefs.ForEach(func(ri int) {
		if liveIn.Has(ri) {
			liveInOwn = append(liveInOwn, ir.Reg(ri))
		}
	})
	for i := 0; i < len(liveInOwn); i++ {
		for j := i + 1; j < len(liveInOwn); j++ {
			gv.AddEdge(liveInOwn[i], liveInOwn[j])
		}
	}

	// --- add_subregion_conflicts (Fig. 4) ---
	subs := V.Children
	// Each subregion's summary nodes, sorted by key once.
	subNodes := make([][]*ig.Node, len(subs))
	for si, s := range subs {
		if gs := a.graphs[s.ID]; gs != nil {
			subNodes[si] = gs.Nodes()
		}
	}
	// Vars: registers referenced in V's own code or present in a
	// subregion's summary graph.
	vars := a.scratch.getSet()
	defer a.scratch.putSet(vars)
	vars.UnionWith(ownRefs)
	for _, nodes := range subNodes {
		for _, n := range nodes {
			for _, r := range n.Regs {
				vars.Add(int(r))
			}
		}
	}
	// Step 1: a register referenced only in subregions but live on
	// entrance to V interferes with everything referenced in V's own
	// code.
	parentNodes := gv.Nodes()
	vars.ForEach(func(ri int) {
		vk := ir.Reg(ri)
		if ownRefs.Has(ri) || !liveIn.Has(ri) {
			return
		}
		nk := gv.Ensure(vk)
		for _, n := range parentNodes {
			gv.AddNodeEdge(nk, n)
		}
	})
	// Step 2: incorporate each subregion's combined graph.
	inSub := a.scratch.getSet()
	defer a.scratch.putSet(inSub)
	for si, s := range subs {
		nodes := subNodes[si]
		if len(nodes) == 0 {
			continue
		}
		// Merge the subregion's nodes into gv. A subregion node may hold
		// several registers that were combined (allocated one register
		// within the subregion); they stay together at the parent level.
		for _, n := range nodes {
			target := gv.Ensure(n.Regs[0])
			for _, r := range n.Regs[1:] {
				gv.AddRegToNode(target, r)
			}
		}
		// Resolve a subregion node to its (possibly merged) image in gv.
		resolve := func(n *ig.Node) *ig.Node { return gv.NodeOf(n.Regs[0]) }
		// Subregion edges carry over.
		for _, n := range nodes {
			rn := resolve(n)
			n.ForEachAdj(func(adj *ig.Node) {
				gv.AddNodeEdge(rn, resolve(adj))
			})
		}
		// Fig. 4's live-in rule: a register live on entrance to the
		// subregion but not referenced in it interferes with every node
		// of the subregion's graph.
		inSub.Clear()
		for _, n := range nodes {
			for _, r := range n.Regs {
				inSub.Add(int(r))
			}
		}
		liveInSub := a.liveAtEntry(s)
		vars.ForEach(func(ri int) {
			if !liveInSub.Has(ri) || inSub.Has(ri) {
				return
			}
			nk := gv.Ensure(ir.Reg(ri))
			for _, n := range nodes {
				gv.AddNodeEdge(nk, resolve(n))
			}
		})
		a.scratch.putSet(liveInSub)
	}

	// Mark nodes containing a register global to V (referenced outside
	// the region): these may never share a colour with another global
	// node (§3.1.3).
	for _, n := range gv.NodesByID() {
		n.Global = false
		for _, r := range n.Regs {
			if a.globalTo(r, span) {
				n.Global = true
				break
			}
		}
	}
	return gv
}

// addDefEdges adds the interferences at in's definition, given live, the
// registers live out of it: the defined register interferes with every
// other live register of ownRefs except a copy's source.
func addDefEdges(gv *ig.Graph, in *ir.Instr, live, ownRefs *bitset.Set) {
	d := in.Def()
	if d == ir.None || !ownRefs.Has(int(d)) {
		return
	}
	copySrc := ir.None
	if in.IsCopy() {
		copySrc = in.Src1
	}
	live.ForEach(func(ri int) {
		r := ir.Reg(ri)
		if r == d || r == copySrc || !ownRefs.Has(ri) {
			return
		}
		gv.AddEdge(d, r)
	})
}
