package rap

import (
	"math"
	"slices"

	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/regalloc"
)

// insertSpillCode implements §3.1.4. For each spilled register v of region
// V:
//
//   - in V's own intermediate code, a load is placed before every use and
//     a store after every definition, and v is renamed;
//   - in each subregion that references v, v is renamed (making it
//     completely local to the subregion), a load is placed at the
//     subregion's first use if v is live on entrance, and a store is
//     placed after each definition whose value is used outside the
//     subregion;
//   - outside the region, the fixup is recursive: every definition that
//     reaches a spilled use gets a store, and every use reached by a
//     spilled definition gets a load (so that each stored definition has a
//     load before its uses and each loaded use has stores after its
//     definitions).
func (a *allocator) insertSpillCode(V *ir.Region, spilledNodes []*ig.Node) error {
	span := a.spans[V.ID]
	edit := regalloc.NewEdit()
	rec := a.spilledIn[V.ID]
	if rec == nil {
		rec = map[ir.Reg]bool{}
		a.spilledIn[V.ID] = rec
	}
	// Deterministic order: nodes as reported by the colourer, members
	// ascending.
	for _, n := range spilledNodes {
		for _, v := range append([]ir.Reg(nil), n.Regs...) {
			a.spillReg(V, span, v, edit)
			rec[a.sp.Origin(v)] = true
			a.stats.RegsSpilled++
		}
	}
	edit.Apply(a.f)
	return nil
}

// storeAfter/loadBefore build spill instructions adjacent to instruction
// idx, inheriting its region so region spans stay contiguous.
func (a *allocator) storeAfter(edit *regalloc.Edit, idx int, src ir.Reg, slot int64) {
	edit.InsertAfter(idx, &ir.Instr{
		Op: ir.OpStSpill, Src1: src, Imm: slot, Region: a.f.Instrs[idx].Region,
	})
}

func (a *allocator) loadBefore(edit *regalloc.Edit, idx int, dst ir.Reg, slot int64) {
	edit.InsertBefore(idx, &ir.Instr{
		Op: ir.OpLdSpill, Imm: slot, Dst: dst, Region: a.f.Instrs[idx].Region,
	})
}

func (a *allocator) spillReg(V *ir.Region, span ir.Span, v ir.Reg, edit *regalloc.Edit) {
	slot := a.sp.SlotOf(v)

	// v's reference sites in V, as the analysis saw them before any
	// renaming. Sites ascend and spans are intervals, so the sites in V
	// and in each subregion are one run each.
	spanUses := sitesIn(a.du.Uses(v), span)
	spanDefs := sitesIn(a.du.Defs(v), span)

	// --- V's own code: load before each use, store after each def,
	// rename (§3.1.4 first step). ---
	var vP ir.Reg = ir.None
	ensureVP := func() ir.Reg {
		if vP == ir.None {
			vP = a.f.NewReg()
			a.sp.Rename(v, vP)
		}
		return vP
	}
	a.sites = mergeSites(a.sites[:0], spanUses, spanDefs)
	for _, i := range a.sites {
		in := a.f.Instrs[i]
		if in.Region != V.ID {
			continue // a subregion's site
		}
		usedHere := false
		in.RewriteUses(func(r ir.Reg) ir.Reg {
			if r != v {
				return r
			}
			usedHere = true
			return ensureVP()
		})
		if usedHere {
			a.loadBefore(edit, i, vP, slot)
		}
		if in.Def() == v {
			in.SetDef(ensureVP())
			a.storeAfter(edit, i, vP, slot)
		}
	}

	// --- Subregions (§3.1.4 second step). ---
	for _, s := range V.Children {
		sspan := a.spans[s.ID]
		if sspan.Empty() {
			continue
		}
		subUses := sitesIn(spanUses, sspan)
		subDefs := sitesIn(spanDefs, sspan)
		if len(subUses) == 0 && len(subDefs) == 0 {
			continue
		}
		// Rename v at its sites in the subregion, and in the subregion's
		// summary graph so the next build of V's graph sees the new name.
		vR := a.f.NewReg()
		a.sp.Rename(v, vR)
		if gs := a.graphs[s.ID]; gs != nil {
			gs.RenameReg(v, vR)
		}
		for _, i := range subUses {
			a.f.Instrs[i].RewriteUses(func(r ir.Reg) ir.Reg {
				if r == v {
					return vR
				}
				return r
			})
		}
		for _, d := range subDefs {
			a.f.Instrs[d].SetDef(vR)
		}
		// Load at the subregion's entrance if v is live into it. For a
		// loop subregion the entrance is *before* the loop header label,
		// so the load executes once on entry and the register carries the
		// value around the back edge — the paper's "load before the first
		// use in the subregion".
		pos, reexecutes := a.subregionEntryPos(sspan)
		if len(subUses) > 0 && a.lv.IsLiveIn(sspan.Start, v) {
			a.loadBefore(edit, pos, vR, slot)
		}
		// Store after each definition whose value is needed outside the
		// subregion. "Outside" includes the loop-around case where the
		// value leaves the region and re-enters through the boundary
		// load, so the test is whether the definition's value is live on
		// any edge leaving the span. If the entry load can re-execute on
		// an internal jump (irreducible placement), every definition must
		// keep the slot current.
		for _, d := range subDefs {
			if reexecutes || a.defEscapes(d, v, sspan) {
				a.storeAfter(edit, d, vR, slot)
			}
		}
	}

	// --- Recursive fixup outside the region. ---
	// Uses outside V reached by definitions inside V must load from the
	// slot (the in-region value now flows through memory only): one
	// forward walk from all of V's definitions, stopping where v is dead.
	loads := slices.DeleteFunc(a.du.ReachedUses(spanDefs, v, a.lv), span.Contains)
	// Every definition outside V whose value reaches a loaded use or a
	// use inside V must store (in-region definitions already got
	// stores): one backward walk from those uses.
	targets := append(loads[:len(loads):len(loads)], spanUses...)
	stores := slices.DeleteFunc(a.du.ReachingDefs(targets, v), span.Contains)
	for _, d := range stores {
		a.storeAfter(edit, d, v, slot)
	}
	for _, u := range loads {
		a.loadBefore(edit, u, v, slot)
	}
}

// sitesIn returns the run of the ascending instruction indices sites
// that lies in span.
func sitesIn(sites []int, span ir.Span) []int {
	lo, _ := slices.BinarySearch(sites, span.Start)
	hi, _ := slices.BinarySearch(sites[lo:], span.End)
	return sites[lo : lo+hi]
}

// mergeSites appends the union of the ascending index lists x and y to
// dst, ascending and without duplicates.
func mergeSites(dst, x, y []int) []int {
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			dst, x = append(dst, x[0]), x[1:]
		case y[0] < x[0]:
			dst, y = append(dst, y[0]), y[1:]
		default:
			dst, x, y = append(dst, x[0]), x[1:], y[1:]
		}
	}
	dst = append(dst, x...)
	return append(dst, y...)
}

// defEscapes reports whether the value defined for v at instruction d
// may be live on some edge leaving span: it walks forward from d through
// the span and checks liveness of v at the first instruction reached
// outside it. The caller has already renamed v's definitions in the
// span, so the walk does not stop at them: a definition counts as
// escaping whenever some path from it leaves the span where v is live.
func (a *allocator) defEscapes(d int, v ir.Reg, span ir.Span) bool {
	if n := len(a.f.Instrs); len(a.visited) < n {
		a.visited = make([]int32, n+n/4)
	}
	if a.visitGen == math.MaxInt32 {
		// A reused allocator's generations would wrap: start over.
		clear(a.visited)
		a.visitGen = 0
	}
	a.visitGen++
	escapes := false
	stack := a.g.Succs(a.stack[:0], d)
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.visited[j] == a.visitGen {
			continue
		}
		a.visited[j] = a.visitGen
		if !span.Contains(j) {
			if a.lv.IsLiveIn(j, v) {
				escapes = true
				break
			}
			continue // v dead on this path; prune
		}
		stack = a.g.Succs(stack, j)
	}
	a.stack = stack
	return escapes
}

// subregionEntryPos finds where code that must run exactly once on entry
// to the subregion belongs. Leading labels are classified by who jumps to
// them:
//
//   - a label targeted only from inside the span (a loop header entered by
//     fall-through) — entry code goes *before* it, so back edges skip it;
//   - a label targeted only from outside (a branch target like an if arm)
//     — entry code goes after it;
//   - a label targeted from both sides has no single safe point; the
//     position after it is returned with reexecutes=true so callers can
//     compensate.
func (a *allocator) subregionEntryPos(sspan ir.Span) (pos int, reexecutes bool) {
	jumpers := a.labelJumpers()
	pos = sspan.Start
	for pos < sspan.End && a.f.Instrs[pos].Op == ir.OpLabel {
		internal, external := false, false
		for _, j := range jumpers[a.f.Instrs[pos].Label] {
			if sspan.Contains(j) {
				internal = true
			} else {
				external = true
			}
		}
		switch {
		case internal && !external:
			return pos, false
		case internal && external:
			return pos + 1, true
		default:
			pos++ // external-only or untargeted label: step past it
		}
	}
	return pos, false
}

// labelJumpers maps each label to the indices of branch instructions
// targeting it. It is built once per analysis: spill insertion renames
// registers in place but moves no instruction before its edit applies.
func (a *allocator) labelJumpers() map[string][]int {
	if a.jumpers != nil {
		return a.jumpers
	}
	m := map[string][]int{}
	for i, in := range a.f.Instrs {
		switch in.Op {
		case ir.OpJump:
			m[in.Label] = append(m[in.Label], i)
		case ir.OpCBr:
			m[in.Label] = append(m[in.Label], i)
			m[in.Label2] = append(m[in.Label2], i)
		}
	}
	a.jumpers = m
	return m
}
