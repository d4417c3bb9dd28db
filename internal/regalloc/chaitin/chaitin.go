// Package chaitin implements GRA, the baseline global register allocator
// of the paper's evaluation (§4): Chaitin's graph-colouring allocator with
// the Briggs/Cooper/Kennedy/Torczon optimistic-colouring enhancement, and
// deliberately without coalescing or rematerialization — "in order to
// present a fair comparison" with RAP.
package chaitin

import (
	"fmt"
	"sync"

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
	// Trace receives structured events and timings from the allocation;
	// nil (the default) is free.
	Trace *obs.Tracer
}

// state is one function's allocation state: the CFG, liveness,
// reference counts and interference graph that every round refills in
// place, and the round's spilled registers. A finished allocation leaves
// its state in states for the next one, of any function, to refill.
type state struct {
	g       *cfg.Graph
	lv      *dataflow.Liveness
	refs    []int32
	graph   ig.Graph
	spilled map[ir.Reg]bool
}

var states = sync.Pool{New: func() any { return &state{spilled: map[ir.Reg]bool{}} }}

// Allocate rewrites f to use at most k physical registers, spilling to
// dedicated frame slots where colouring fails. Spill cost follows Chaitin:
// the number of definitions and uses of the register in the whole
// procedure, divided by its degree in the interference graph.
func Allocate(f *ir.Function, k int, opts Options) error {
	if k < regalloc.MinRegisters {
		return fmt.Errorf("chaitin: k=%d below minimum %d", k, regalloc.MinRegisters)
	}
	span := opts.Trace.StartSpan("gra.color")
	defer span.End()
	st := states.Get().(*state)
	err := st.allocate(f, k, opts)
	// Only a normal return puts the state back: a panic could leave its
	// tables half filled.
	if st.g != nil {
		st.g.F = nil
	}
	states.Put(st)
	return err
}

func (st *state) allocate(f *ir.Function, k int, opts Options) error {
	sp := regalloc.NewSpiller(f)
	graph := &st.graph
	for iter := 0; iter < regalloc.MaxRounds; iter++ {
		stopBuild := opts.Trace.StartTimer("gra.phase.build")
		var err error
		st.g, err = cfg.Rebuild(st.g, f)
		if err != nil {
			stopBuild()
			return fmt.Errorf("chaitin: %w", err)
		}
		st.lv = dataflow.RecomputeLiveness(st.lv, st.g)
		regalloc.BuildInterference(graph, f, st.g, st.lv)
		stopBuild()

		// Spill costs: refs/degree, infinite for spill temporaries.
		st.refs = f.RefCounts(st.refs)
		for _, n := range graph.Nodes() {
			total := 0
			temp := false
			for _, r := range n.Regs {
				total += int(st.refs[r])
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
		clear(st.spilled)
		for _, n := range res.Spilled {
			for _, r := range n.Regs {
				if sp.IsTemp(r) {
					return fmt.Errorf("chaitin: %s: spill temporary %s selected for spilling (k too small)", f.Name, r)
				}
				st.spilled[r] = true
			}
		}
		opts.Trace.Metrics().Add("gra.regs_spilled", int64(len(st.spilled)))
		regalloc.SpillEverywhere(f, sp, st.spilled)
		stopSpill()
	}
	return fmt.Errorf("chaitin: %s: no colouring after %d iterations", f.Name, regalloc.MaxRounds)
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
