// Package rap implements RAP, the paper's contribution: a register
// allocator that works hierarchically over the Program Dependence Graph's
// region structure (Norris & Pollock, PLDI 1994).
//
// Allocation proceeds in the paper's three phases:
//
//  1. A bottom-up pass over the region tree (§3.1, Fig. 2). Each region
//     gets its own interference graph, built from the statements the
//     region owns directly (add_region_conflicts) plus the combined
//     summary graphs of its subregions (add_subregion_conflicts, Fig. 4).
//     Spill costs follow Fig. 5; colouring uses simplify/select with the
//     Briggs optimistic enhancement and first-fit colour choice; spills
//     are inserted region-locally (§3.1.4) with the recursive
//     outside-region fixup; successful colourings are summarized by
//     combining same-coloured nodes (§3.1.5) before being handed to the
//     parent region. Physical registers are fixed at the entry region.
//  2. A top-down pass that moves spill loads/stores out of loop regions
//     into spill nodes before/after the loop (§3.2).
//  3. A local pass that eliminates redundant loads and stores inside
//     basic blocks (§3.3, Fig. 6), implemented in package peephole.
package rap

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/peephole"
	"repro/internal/regalloc"
)

// Options configures RAP. The zero value is the paper's configuration.
type Options struct {
	// DisableSpillMotion turns off phase 2 (ablation).
	DisableSpillMotion bool
	// DisablePeephole turns off phase 3 (ablation).
	DisablePeephole bool
	// Trace receives structured events and per-phase timings from all
	// three RAP phases. nil (the default) is free on the hot path. The
	// library never consults the environment; the RAP_DEBUG shim lives
	// in the commands (rapcc/rapbench/rapserved), which decide the sink
	// and pass it down here.
	Trace *obs.Tracer
}

// Stats reports what each phase of a RAP allocation did.
type Stats struct {
	// SpillRounds counts build/colour/spill iterations beyond the first,
	// summed over all regions.
	SpillRounds int
	// RegsSpilled counts register spills (a register spilled at two
	// region levels counts twice).
	RegsSpilled int
	// Hoists counts spill-code families moved out of a loop (§3.2).
	Hoists int
	// Peephole reports phase 3's removals (§3.3).
	Peephole peephole.Stats
	// CopiesRemoved counts i2i r=>r instructions deleted after the
	// rewrite to physical registers.
	CopiesRemoved int
}

// Allocate rewrites f to use at most k physical registers by hierarchical
// allocation over f's region tree.
func Allocate(f *ir.Function, k int, opts Options) error {
	_, err := AllocateWithStats(f, k, opts)
	return err
}

// AllocateWithStats is Allocate, additionally reporting per-phase
// statistics.
func AllocateWithStats(f *ir.Function, k int, opts Options) (Stats, error) {
	if k < regalloc.MinRegisters {
		return Stats{}, fmt.Errorf("rap: k=%d below minimum %d", k, regalloc.MinRegisters)
	}
	if f.Regions == nil {
		return Stats{}, fmt.Errorf("rap: %s has no region tree", f.Name)
	}
	a := allocators.Get().(*allocator)
	a.f, a.k, a.opts, a.sp = f, k, opts, regalloc.NewSpiller(f)
	stats, err := a.allocate()
	// Only a normal return puts the allocator back: a panic could leave
	// a half-done merge or rename in its graph.
	a.release()
	allocators.Put(a)
	return stats, err
}

// allocate runs the three phases on a.f.
func (a *allocator) allocate() (Stats, error) {
	f, k, opts := a.f, a.k, a.opts
	if err := a.reanalyze(); err != nil {
		return Stats{}, err
	}
	// Phase 1: bottom-up allocation. The entry region's colouring is the
	// physical register assignment.
	sp1 := opts.Trace.StartSpan("rap.color")
	err := a.allocateRegion(f.Regions)
	sp1.End()
	if err != nil {
		return a.stats, err
	}
	entry := a.graphs[f.Regions.ID]
	if err := entry.CheckColoring(k, false); err != nil {
		return a.stats, fmt.Errorf("rap: %s: entry colouring invalid: %w", f.Name, err)
	}
	// Phase 2 runs before the rewrite so it can reason about virtual
	// registers and their colours.
	if !opts.DisableSpillMotion {
		sp2 := opts.Trace.StartSpan("rap.motion")
		err := a.moveSpillCode(entry)
		sp2.End()
		if err != nil {
			return a.stats, err
		}
	}
	if err := regalloc.RewriteToPhysical(f, entry, k); err != nil {
		return a.stats, fmt.Errorf("rap: %w", err)
	}
	a.stats.CopiesRemoved = regalloc.RemoveSelfCopies(f)
	// Phase 3: basic-block-local load/store elimination.
	if !opts.DisablePeephole {
		sp3 := opts.Trace.StartSpan("rap.peephole")
		st, err := peephole.Run(f, opts.Trace)
		sp3.End()
		if err != nil {
			return a.stats, fmt.Errorf("rap: %w", err)
		}
		a.stats.Peephole = st
	}
	a.recordStats()
	return a.stats, nil
}

// recordStats publishes the allocation's Stats as metrics counters so a
// snapshot carries them without the caller re-plumbing Stats.
func (a *allocator) recordStats() {
	m := a.opts.Trace.Metrics()
	if m == nil {
		return
	}
	m.Add("rap.spill_rounds", int64(a.stats.SpillRounds))
	m.Add("rap.regs_spilled", int64(a.stats.RegsSpilled))
	m.Add("rap.hoists", int64(a.stats.Hoists))
	m.Add("rap.peephole.loads_deleted", int64(a.stats.Peephole.LoadsDeleted))
	m.Add("rap.peephole.loads_to_copies", int64(a.stats.Peephole.LoadsToCopies))
	m.Add("rap.peephole.stores_deleted", int64(a.stats.Peephole.StoresDeleted))
	m.Add("rap.copies_removed", int64(a.stats.CopiesRemoved))
	m.Add("rap.funcs_allocated", 1)
}

// allocator is one function's allocation state. Finished allocations
// leave theirs in allocators, and the next allocation, of any function,
// refills it: the analysis, the region graph, the scratch sets and the
// walk buffers keep their storage, and release drops everything that
// belongs to the function allocated.
type allocator struct {
	f    *ir.Function
	k    int
	opts Options
	sp   *regalloc.Spiller

	// graphs[id] is the summary interference graph of region id: the
	// coloured, combined (≤ k node) graph for interior regions, and the
	// full coloured graph (work) for the entry region.
	graphs map[int]*ig.Graph
	// spilledIn[id] records origins spilled while allocating region id
	// (used by the Fig. 5 "already spilled" rule).
	spilledIn map[int]map[ir.Reg]bool
	// work is the graph every region build refills.
	work ig.Graph

	// Analysis state, recomputed in place by reanalyze after every code
	// edit. totalRefs[r] counts r's references in the whole function.
	g         *cfg.Graph
	lv        *dataflow.Liveness
	du        *dataflow.DefUse
	spans     []ir.Span
	totalRefs []int32
	// jumpers is the label→branch index of the current analysis, built
	// on first use by labelJumpers.
	jumpers map[string][]int
	// defEscapes' walk state: visited[i] == visitGen marks instruction i
	// seen by the current walk, and stack is its reused worklist (and
	// liveAtExit's list of an instruction's successors).
	visited  []int32
	visitGen int32
	stack    []int
	// sites is spillReg's reused list of a register's sites in V.
	sites []int

	// scratch holds the reusable dense buffers behind the per-region
	// helper sets.
	scratch regScratch

	stats Stats
}

// allocators holds allocator states for reuse.
var allocators = sync.Pool{New: func() any { return newAllocator() }}

func newAllocator() *allocator {
	return &allocator{graphs: map[int]*ig.Graph{}, spilledIn: map[int]map[ir.Reg]bool{}}
}

// release drops every reference to the allocated function, its spiller,
// tracer and summary graphs, and the per-function records, so a reused
// allocator starts clean.
func (a *allocator) release() {
	a.f, a.opts, a.sp, a.stats, a.jumpers = nil, Options{}, nil, Stats{}, nil
	clear(a.graphs)
	clear(a.spilledIn)
	if a.g != nil {
		a.g.F = nil
	}
}

// afterReanalyze, when non-nil, runs at the end of every reanalyze. Only
// tests set it (export_test.go), to check the recomputed analysis
// against a fresh one.
var afterReanalyze func(*allocator)

// reanalyze recomputes the CFG, liveness, def-use tables, region spans
// and reference counts after the instruction list changed. The first
// call builds them; later ones recompute into the same storage (every
// spill round grows the function a little, so the arrays rarely need to
// grow). Nothing may hold a slice or set of the previous analysis across
// the call: liveness sets, def-use site lists and spans are overwritten
// in place, so a borrowed view would silently change under its holder.
func (a *allocator) reanalyze() error {
	defer a.opts.Trace.StartTimer("rap.phase.analyze")()
	g, err := cfg.Rebuild(a.g, a.f)
	if err != nil {
		return fmt.Errorf("rap: %w", err)
	}
	a.g = g
	a.lv = dataflow.RecomputeLiveness(a.lv, g)
	a.du = dataflow.RecomputeDefUse(a.du, g)
	a.spans = a.f.RegionSpans()
	a.totalRefs = a.f.RefCounts(a.totalRefs)
	a.jumpers = nil
	a.scratch.resize(int(a.f.NextReg))
	if afterReanalyze != nil {
		afterReanalyze(a)
	}
	return nil
}

// allocateRegion runs the Fig. 2 procedure on region V after recursively
// allocating its subregions.
func (a *allocator) allocateRegion(V *ir.Region) error {
	for _, s := range V.Children {
		if err := a.allocateRegion(s); err != nil {
			return err
		}
	}
	isEntry := V.Parent == nil
	for iter := 0; iter < regalloc.MaxRounds; iter++ {
		stopBuild := a.opts.Trace.StartTimer("rap.phase.build")
		gv := a.buildRegionGraph(V)
		stopBuild()
		stopCost := a.opts.Trace.StartTimer("rap.phase.cost")
		a.calcSpillCosts(V, gv)
		stopCost()
		stopColor := a.opts.Trace.StartTimer("rap.phase.color")
		res := gv.Color(a.k, !isEntry)
		stopColor()
		if len(res.Spilled) == 0 {
			if m := a.opts.Trace.Metrics(); m != nil {
				m.ObserveVal("rap.region.iters", int64(iter)+1)
				m.ObserveVal("rap.region.nodes", int64(gv.NumNodes()))
			}
			if a.opts.Trace.Enabled() {
				a.opts.Trace.Emit(regionColoredEvent(a.f.Name, V, iter, gv))
			}
			if isEntry {
				a.graphs[V.ID] = gv
			} else {
				a.graphs[V.ID] = gv.Combine()
			}
			return nil
		}
		if a.opts.Trace.Enabled() {
			for _, n := range res.Spilled {
				a.opts.Trace.Emit(&obs.NodeSpilled{
					Func: a.f.Name, Region: V.ID, Iter: iter,
					Regs: regNames(n.Regs), Cost: n.SpillCost,
					Degree: n.Degree(), Global: n.Global,
				})
			}
			a.opts.Trace.Emit(&obs.IterationRetried{
				Func: a.f.Name, Region: V.ID, Iter: iter, Spilled: len(res.Spilled),
			})
		}
		a.stats.SpillRounds++
		stopSpill := a.opts.Trace.StartTimer("rap.phase.spill")
		err := a.insertSpillCode(V, res.Spilled)
		stopSpill()
		if err != nil {
			return err
		}
		if err := a.reanalyze(); err != nil {
			return err
		}
	}
	return fmt.Errorf("rap: %s: region %d not colourable after %d spill rounds (k=%d)",
		a.f.Name, V.ID, regalloc.MaxRounds, a.k)
}

// regNames renders member registers for an event.
func regNames(regs []ir.Reg) []string {
	out := make([]string, len(regs))
	for i, r := range regs {
		out[i] = r.String()
	}
	return out
}

// regionColoredEvent summarizes a successful region colouring, with the
// full per-register assignment (the entry region's assignment is the
// physical one).
func regionColoredEvent(fn string, V *ir.Region, iter int, gv *ig.Graph) *obs.RegionColored {
	ev := &obs.RegionColored{
		Func: fn, Region: V.ID, RegionKind: V.Kind.String(),
		Iter: iter, Nodes: gv.NumNodes(),
	}
	colors := map[int]bool{}
	for _, n := range gv.Nodes() {
		colors[n.Color] = true
		for _, r := range n.Regs {
			ev.Assigned = append(ev.Assigned, obs.RegColor{Reg: r.String(), Color: n.Color})
		}
	}
	ev.Colors = len(colors)
	return ev
}

// --- region-level facts ---

// ownIndices returns the instruction indices owned directly by V.
func (a *allocator) ownIndices(V *ir.Region) []int {
	span := a.spans[V.ID]
	var out []int
	for i := span.Start; i < span.End; i++ {
		if a.f.Instrs[i].Region == V.ID {
			out = append(out, i)
		}
	}
	return out
}

// refsAt appends the registers referenced (used or defined) by instruction
// i, one entry per occurrence.
func (a *allocator) refsAt(i int, buf []ir.Reg) []ir.Reg {
	in := a.f.Instrs[i]
	buf = in.Uses(buf)
	if d := in.Def(); d != ir.None {
		buf = append(buf, d)
	}
	return buf
}

// globalTo reports whether r has references outside span — the paper's
// "global to the region" (§3.1: a register is local to a region if all its
// references are inside). r's sites ascend, so only the first and last
// of each kind can lie outside.
func (a *allocator) globalTo(r ir.Reg, span ir.Span) bool {
	for _, sites := range [2][]int{a.du.Uses(r), a.du.Defs(r)} {
		if len(sites) > 0 && (sites[0] < span.Start || sites[len(sites)-1] >= span.End) {
			return true
		}
	}
	return false
}

// localTo reports whether r is referenced, and only inside span.
func (a *allocator) localTo(r ir.Reg, span ir.Span) bool {
	return (len(a.du.Uses(r)) > 0 || len(a.du.Defs(r)) > 0) && !a.globalTo(r, span)
}

// liveAtEntry returns the registers live on entrance to region V. MiniC
// regions are single-entry intervals, so this is the live-in set of the
// first instruction. The set comes from the allocator's scratch pool;
// the caller returns it with putSet when done.
func (a *allocator) liveAtEntry(V *ir.Region) *bitset.Set {
	out := a.scratch.getSet()
	if span := a.spans[V.ID]; !span.Empty() {
		a.lv.LiveIn(out, span.Start)
	}
	return out
}

// liveAtExit returns the registers live on some edge leaving region V.
// The set comes from the allocator's scratch pool; the caller returns it
// with putSet when done.
func (a *allocator) liveAtExit(V *ir.Region) *bitset.Set {
	span := a.spans[V.ID]
	out := a.scratch.getSet()
	tmp := a.scratch.getSet()
	for i := span.Start; i < span.End; i++ {
		a.stack = a.g.Succs(a.stack[:0], i)
		for _, s := range a.stack {
			if !span.Contains(s) {
				out.UnionWith(a.lv.LiveIn(tmp, s))
			}
		}
	}
	a.scratch.putSet(tmp)
	return out
}

// usedIn / definedIn report use/def presence within a span. Both sets
// come from the scratch pool and go back via putSet.
func (a *allocator) usedIn(span ir.Span) *bitset.Set {
	out := a.scratch.getSet()
	var buf []ir.Reg
	for i := span.Start; i < span.End; i++ {
		buf = a.f.Instrs[i].Uses(buf[:0])
		for _, u := range buf {
			out.Add(int(u))
		}
	}
	return out
}

func (a *allocator) definedIn(span ir.Span) *bitset.Set {
	out := a.scratch.getSet()
	for i := span.Start; i < span.End; i++ {
		if d := a.f.Instrs[i].Def(); d != ir.None {
			out.Add(int(d))
		}
	}
	return out
}
