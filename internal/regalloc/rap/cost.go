package rap

import (
	"repro/internal/ig"
	"repro/internal/ir"
)

// calcSpillCosts implements the paper's Fig. 5 spill-cost computation for
// region V's interference graph:
//
//   - nodes whose registers are completely local to one subregion, and
//     nodes already spilled in this region, get infinite cost (spilling
//     them cannot remove any interference);
//   - otherwise the cost starts as the number of definitions and uses in
//     V's own code (a load before each use, a store after each
//     definition);
//   - plus one for each subregion boundary the register is live into and
//     used in, and one for each boundary it is live out of and defined in
//     (spilling would also require boundary loads/stores there);
//   - the degree is the node's interference count, incremented once per
//     non-interfering node pair whose members are both global to V (two
//     globals can never share a register even without a local conflict);
//   - final cost = cost / degree.
func (a *allocator) calcSpillCosts(V *ir.Region, gv *ig.Graph) {
	nodes := gv.Nodes()
	spilled := a.spilledIn[V.ID]

	// Subregion-locality rule.
	local := make([]bool, len(nodes))
	for _, s := range V.Children {
		span := a.spans[s.ID]
		if span.Empty() {
			continue
		}
		for ni, n := range nodes {
			if local[ni] {
				continue
			}
			all := true
			for _, r := range n.Regs {
				if !a.localTo(r, span) {
					all = false
					break
				}
			}
			local[ni] = all
		}
	}

	// Infinite-cost rules.
	finite := make([]*ig.Node, 0, len(nodes))
	for ni, n := range nodes {
		n.SpillCost = 0
		if local[ni] || a.nodeAlreadySpilled(n, spilled) {
			n.SpillCost = ig.Infinity
			continue
		}
		finite = append(finite, n)
	}

	// Cost: definitions and uses in V's own code.
	var buf []ir.Reg
	for _, i := range a.ownIndices(V) {
		buf = a.refsAt(i, buf[:0])
		for _, r := range buf {
			if n := gv.NodeOf(r); n != nil && n.SpillCost != ig.Infinity {
				n.SpillCost++
			}
		}
	}

	// Boundary loads/stores per subregion (Fig. 5's Livein/Liveout sets).
	for _, s := range V.Children {
		sspan := a.spans[s.ID]
		if sspan.Empty() {
			continue
		}
		liveIn := a.liveAtEntry(s)
		liveOut := a.liveAtExit(s)
		used := a.usedIn(sspan)
		defined := a.definedIn(sspan)
		for _, n := range finite {
			if n.SpillCost == ig.Infinity {
				continue
			}
			in, out := false, false
			for _, r := range n.Regs {
				if liveIn.Has(int(r)) && used.Has(int(r)) {
					in = true
				}
				if liveOut.Has(int(r)) && defined.Has(int(r)) {
					out = true
				}
			}
			if in {
				n.SpillCost++
			}
			if out {
				n.SpillCost++
			}
		}
		a.scratch.putSet(liveOut)
		a.scratch.putSet(used)
		a.scratch.putSet(defined)
	}

	// Degrees, with the global-pair increment.
	for _, n := range nodes {
		if n.SpillCost == ig.Infinity {
			continue
		}
		deg := n.Degree()
		if n.Global {
			for _, m := range nodes {
				if m == n || !m.Global || n.Adjacent(m) {
					continue
				}
				deg++
			}
		}
		if deg == 0 {
			deg = 1
		}
		n.SpillCost /= float64(deg)
	}
}

// nodeAlreadySpilled reports whether any member of n descends from a
// register already spilled while allocating this region, or is a spill
// temporary from any level; spilling those again cannot help.
func (a *allocator) nodeAlreadySpilled(n *ig.Node, spilled map[ir.Reg]bool) bool {
	for _, r := range n.Regs {
		if a.sp.IsTemp(r) {
			return true
		}
		if spilled != nil && spilled[a.sp.Origin(r)] {
			return true
		}
	}
	return false
}
