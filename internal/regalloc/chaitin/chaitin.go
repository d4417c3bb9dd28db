// Package chaitin implements GRA, the baseline global register allocator
// of the paper's evaluation (§4): Chaitin's graph-colouring allocator with
// the Briggs/Cooper/Kennedy/Torczon optimistic-colouring enhancement, and
// deliberately without coalescing or rematerialization — "in order to
// present a fair comparison" with RAP.
package chaitin

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/regalloc"
)

// wholeFunction is the Region id GRA events carry: Chaitin colours one
// graph for the whole routine, not a PDG region.
const wholeFunction = -1

// Options configures the allocator.
type Options struct {
	// MaxIterations bounds the build/colour/spill loop (0 means 100).
	MaxIterations int
	// Coalesce enables conservative (Briggs) coalescing of copy-related
	// registers. The paper's GRA runs without it (§4); this is the §5
	// extension.
	Coalesce bool
	// Rematerialize recomputes never-killed constants at their uses
	// instead of spilling them through memory (Briggs et al.; the paper's
	// GRA deliberately omits it). Extension, off by default.
	Rematerialize bool
	// Trace receives structured events and timings from the allocation;
	// nil (the default) is free.
	Trace *obs.Tracer
}

// Allocate rewrites f to use at most k physical registers, spilling to
// dedicated frame slots where colouring fails. Spill cost follows Chaitin:
// the number of definitions and uses of the register in the whole
// procedure, divided by its degree in the interference graph.
func Allocate(f *ir.Function, k int, opts Options) error {
	if k < regalloc.MinRegisters {
		return fmt.Errorf("chaitin: k=%d below minimum %d", k, regalloc.MinRegisters)
	}
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = 100
	}
	span := opts.Trace.StartSpan("gra.color")
	defer span.End()
	sp := regalloc.NewSpiller(f)
	// One CFG, liveness and reference count table, recomputed in place
	// by every round.
	var (
		g    *cfg.Graph
		lv   *dataflow.Liveness
		refs []int32
	)
	for iter := 0; iter < maxIter; iter++ {
		stopBuild := opts.Trace.StartTimer("gra.phase.build")
		var err error
		g, err = cfg.Rebuild(g, f)
		if err != nil {
			stopBuild()
			return fmt.Errorf("chaitin: %w", err)
		}
		lv = dataflow.RecomputeLiveness(lv, g)
		graph := regalloc.BuildInterference(f, g, lv)
		if opts.Coalesce {
			regalloc.CoalesceConservative(f.Instrs, graph, k, false, nil)
		}
		stopBuild()

		// Spill costs: refs/degree, infinite for spill temporaries.
		// Coalesced nodes sum their members' reference counts.
		refs = f.RefCounts(refs)
		for _, n := range graph.Nodes() {
			total := 0
			temp := false
			for _, r := range n.Regs {
				total += int(refs[r])
				temp = temp || sp.IsTemp(r)
			}
			if temp {
				n.SpillCost = ig.Infinity
				continue
			}
			d := n.Degree()
			if d == 0 {
				d = 1
			}
			n.SpillCost = float64(total) / float64(d)
		}

		stopColor := opts.Trace.StartTimer("gra.phase.color")
		res := graph.Color(k, false)
		stopColor()
		if len(res.Spilled) == 0 {
			if m := opts.Trace.Metrics(); m != nil {
				m.ObserveVal("gra.func.iters", int64(iter)+1)
				m.ObserveVal("gra.func.nodes", int64(graph.NumNodes()))
			}
			if opts.Trace.Enabled() {
				opts.Trace.Emit(coloredEvent(f.Name, iter, graph))
			}
			if err := regalloc.RewriteToPhysical(f, graph, k); err != nil {
				return fmt.Errorf("chaitin: %w", err)
			}
			regalloc.RemoveSelfCopies(f)
			opts.Trace.Metrics().Add("gra.funcs_allocated", 1)
			return nil
		}
		if opts.Trace.Enabled() {
			for _, n := range res.Spilled {
				regs := make([]string, len(n.Regs))
				for i, r := range n.Regs {
					regs[i] = r.String()
				}
				opts.Trace.Emit(&obs.NodeSpilled{
					Func: f.Name, Region: wholeFunction, Iter: iter,
					Regs: regs, Cost: n.SpillCost, Degree: n.Degree(), Global: n.Global,
				})
			}
			opts.Trace.Emit(&obs.IterationRetried{
				Func: f.Name, Region: wholeFunction, Iter: iter, Spilled: len(res.Spilled),
			})
		}
		opts.Trace.Metrics().Add("gra.spill_rounds", 1)
		stopSpill := opts.Trace.StartTimer("gra.phase.spill")
		spilled := map[ir.Reg]bool{}
		var remat []ir.Reg
		for _, n := range res.Spilled {
			for _, r := range n.Regs {
				if sp.IsTemp(r) {
					return fmt.Errorf("chaitin: %s: spill temporary %s selected for spilling (k too small)", f.Name, r)
				}
				if opts.Rematerialize {
					if _, ok := regalloc.RematProto(f, r); ok {
						remat = append(remat, r)
						continue
					}
				}
				spilled[r] = true
			}
		}
		if len(remat) > 0 {
			edit := regalloc.NewEdit()
			for _, r := range remat {
				proto, _ := regalloc.RematProto(f, r)
				regalloc.RematerializeReg(f, sp, r, proto, edit)
			}
			edit.Apply(f)
		}
		if m := opts.Trace.Metrics(); m != nil {
			m.Add("gra.regs_spilled", int64(len(spilled)))
			m.Add("gra.rematerialized", int64(len(remat)))
		}
		regalloc.SpillEverywhere(f, sp, spilled)
		stopSpill()
	}
	return fmt.Errorf("chaitin: %s: no colouring after %d iterations", f.Name, maxIter)
}

// coloredEvent summarizes the successful whole-function colouring: the
// assignment is the physical one (register R<color-1>).
func coloredEvent(fn string, iter int, graph *ig.Graph) *obs.RegionColored {
	ev := &obs.RegionColored{
		Func: fn, Region: wholeFunction, RegionKind: "function",
		Iter: iter, Nodes: graph.NumNodes(),
	}
	colors := map[int]bool{}
	for _, n := range graph.Nodes() {
		colors[n.Color] = true
		for _, r := range n.Regs {
			ev.Assigned = append(ev.Assigned, obs.RegColor{Reg: r.String(), Color: n.Color})
		}
	}
	ev.Colors = len(colors)
	return ev
}
