// Package core is the public face of the reproduction: it wires the MiniC
// front end, the lowerer, the register allocators (RAP — the paper's
// contribution — the GRA baseline, IRC and the naive spill-everything
// allocator), and the counting interpreter into one pipeline, and
// computes the paper's evaluation metric.
package core

import (
	"context"
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/peephole"
	"repro/internal/regalloc"
	"repro/internal/regalloc/chaitin"
	"repro/internal/regalloc/irc"
	"repro/internal/regalloc/naive"
	"repro/internal/regalloc/rap"
	"repro/internal/sem"
	"repro/internal/testutil"
	"repro/internal/verify"
)

// Allocator selects a register allocation strategy.
type Allocator string

// Available allocators.
const (
	// AllocNone leaves the code on virtual registers (unallocated iloc).
	AllocNone Allocator = "none"
	// AllocGRA is the baseline: Chaitin's global colouring allocator with
	// the Briggs optimistic enhancement, no coalescing, no
	// rematerialization (§4).
	AllocGRA Allocator = "gra"
	// AllocRAP is the paper's hierarchical allocator over the PDG.
	AllocRAP Allocator = "rap"
	// AllocNaive spills everything — the textbook worst case, used as a
	// third differential oracle and lower bound.
	AllocNaive Allocator = "naive"
	// AllocIRC is George–Appel iterated register coalescing with
	// precolored physical registers and the real call ABI (calls clobber
	// the caller-save half of the file; callee-save registers are
	// saved/restored) — an independently built coloring backend for the
	// three-way Table 1 comparison and the differential fuzz matrix.
	AllocIRC Allocator = "irc"
)

// allAllocators is the single registry every allocator list derives
// from: ParseAllocator, Config.Validate, the CLI -alloc help strings,
// and the error text all use it, so registering a backend here makes it
// appear everywhere at once. Order is the presentation order.
var allAllocators = []Allocator{AllocNone, AllocGRA, AllocRAP, AllocNaive, AllocIRC}

// Allocators returns the registered allocators in presentation order.
func Allocators() []Allocator {
	return append([]Allocator(nil), allAllocators...)
}

// AllocatorNames renders the registry as "none, gra, rap, naive or irc"
// — the fragment shared by ParseAllocator's error text and the CLI
// -alloc flag help, so the two can never drift apart.
func AllocatorNames() string {
	names := ""
	for i, a := range allAllocators {
		switch {
		case i == 0:
		case i == len(allAllocators)-1:
			names += " or "
		default:
			names += ", "
		}
		names += string(a)
	}
	return names
}

// AllocatorFlagHelp is the canonical help text for a CLI -alloc flag,
// derived from the registry so a command's usage string can never drift
// from what ParseAllocator accepts.
func AllocatorFlagHelp() string {
	return "register allocator: " + AllocatorNames()
}

// Config selects and parameterizes a compilation.
type Config struct {
	// Allocator choses the allocation strategy (default AllocNone).
	Allocator Allocator
	// K is the physical register set size (required unless AllocNone).
	K int
	// Lower configures the front end (region granularity).
	Lower lower.Options
	// RAP configures the RAP phases (ablations).
	RAP rap.Options
	// GRAPeephole additionally runs RAP's Fig. 6 load/store elimination
	// after GRA (an ablation; the paper's GRA does not include it).
	GRAPeephole bool
	// Trace observes the whole pipeline: the front-end phases run under
	// "parse"/"sem"/"lower" spans, and the tracer is threaded into the
	// selected allocator (and, via an attached metrics registry, into
	// everything that reports counters). nil is free.
	Trace *obs.Tracer
}

// Frontend parses, checks and lowers MiniC source, timing each phase
// under the tracer (which may be nil).
func Frontend(src string, opts lower.Options, tr *obs.Tracer) (*ir.Program, error) {
	span := tr.StartSpan("parse")
	prog, err := parser.Parse(src)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("%w: parse: %w", ErrBadSource, err)
	}
	span = tr.StartSpan("sem")
	err = sem.Check(prog)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("%w: check: %w", ErrBadSource, err)
	}
	span = tr.StartSpan("lower")
	p, err := lower.Lower(prog, opts)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("%w: lower: %w", ErrBadSource, err)
	}
	return p, nil
}

// Compile compiles MiniC source through the configured pipeline. The
// configuration is validated first; a bad allocator name or register set
// size is reported (as ErrBadAllocator / ErrBadK) before any work runs.
func Compile(src string, cfg Config) (*ir.Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := Frontend(src, cfg.Lower, cfg.Trace)
	if err != nil {
		return nil, err
	}
	switch cfg.Allocator {
	case "", AllocNone:
		return p, nil
	case AllocGRA:
		span := cfg.Trace.StartSpan("alloc.gra")
		defer span.End()
		for _, f := range p.Funcs {
			if err := chaitin.Allocate(f, cfg.K, chaitin.Options{Trace: cfg.Trace}); err != nil {
				return nil, fmt.Errorf("%s: %w", f.Name, err)
			}
			if cfg.GRAPeephole {
				if _, err := peephole.Run(f, cfg.Trace); err != nil {
					return nil, fmt.Errorf("%s: %w", f.Name, err)
				}
			}
			if err := regalloc.CheckPhysical(f); err != nil {
				return nil, err
			}
		}
		return p, nil
	case AllocNaive:
		for _, f := range p.Funcs {
			if err := naive.Allocate(f, cfg.K); err != nil {
				return nil, fmt.Errorf("%s: %w", f.Name, err)
			}
			if err := regalloc.CheckPhysical(f); err != nil {
				return nil, err
			}
		}
		return p, nil
	case AllocIRC:
		span := cfg.Trace.StartSpan("alloc.irc")
		defer span.End()
		for _, f := range p.Funcs {
			if err := irc.Allocate(f, cfg.K, irc.Options{Trace: cfg.Trace}); err != nil {
				return nil, fmt.Errorf("%s: %w", f.Name, err)
			}
			if err := regalloc.CheckPhysical(f); err != nil {
				return nil, err
			}
		}
		return p, nil
	case AllocRAP:
		span := cfg.Trace.StartSpan("alloc.rap")
		defer span.End()
		for _, f := range p.Funcs {
			ropts := cfg.RAP
			if ropts.Trace == nil {
				ropts.Trace = cfg.Trace
			}
			if err := rap.Allocate(f, cfg.K, ropts); err != nil {
				return nil, fmt.Errorf("%s: %w", f.Name, err)
			}
			if err := regalloc.CheckPhysical(f); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	return nil, fmt.Errorf("core: unknown allocator %q", cfg.Allocator)
}

// Run executes a compiled program on the counting interpreter.
func Run(p *ir.Program) (*interp.Result, error) {
	return interp.Run(p, interp.Options{})
}

// Measurement is one routine's executed-instruction statistics under the
// compared allocators for one register set size.
type Measurement struct {
	Func string
	K    int
	GRA  interp.Stats
	RAP  interp.Stats
	// IRC is the iterated-register-coalescing backend's statistics. Its
	// cycle counts include the real call-ABI costs (callee-save
	// save/restore, RetReg routing) the window-convention backends do
	// not pay, which is part of what the three-way comparison shows.
	IRC interp.Stats
	// GRASpillOps / RAPSpillOps / IRCSpillOps count the *static* spill
	// instructions (lds/sts) in the allocated routine. The paper leaves
	// a Table 1 entry blank "if the allocated code does not contain
	// spill code"; all being zero reproduces that rule.
	GRASpillOps int
	RAPSpillOps int
	IRCSpillOps int
	// GRASize / RAPSize / IRCSize count the routine's static
	// instructions after allocation (labels excluded) — the code-growth
	// side of spilling.
	GRASize int
	RAPSize int
	IRCSize int
}

// PctTotal is the paper's headline metric for the routine:
// (cycles(GRA) − cycles(RAP)) / cycles(GRA) × 100.
func (m Measurement) PctTotal() float64 {
	if m.GRA.Cycles == 0 {
		return 0
	}
	return float64(m.GRA.Cycles-m.RAP.Cycles) / float64(m.GRA.Cycles) * 100
}

// PctLoads is the portion of PctTotal due to the change in loads executed.
func (m Measurement) PctLoads() float64 {
	if m.GRA.Cycles == 0 {
		return 0
	}
	return float64(m.GRA.Loads-m.RAP.Loads) / float64(m.GRA.Cycles) * 100
}

// PctStores is the portion due to the change in stores executed.
func (m Measurement) PctStores() float64 {
	if m.GRA.Cycles == 0 {
		return 0
	}
	return float64(m.GRA.Stores-m.RAP.Stores) / float64(m.GRA.Cycles) * 100
}

// PctCopies is the remaining portion, due to the change in copies.
func (m Measurement) PctCopies() float64 {
	if m.GRA.Cycles == 0 {
		return 0
	}
	return float64(m.GRA.Copies-m.RAP.Copies) / float64(m.GRA.Cycles) * 100
}

// PctIRCTotal is the headline metric applied to the IRC backend:
// (cycles(GRA) − cycles(IRC)) / cycles(GRA) × 100. Negative values mean
// IRC's ABI overhead outweighed its coalescing gains for the routine.
func (m Measurement) PctIRCTotal() float64 {
	if m.GRA.Cycles == 0 {
		return 0
	}
	return float64(m.GRA.Cycles-m.IRC.Cycles) / float64(m.GRA.Cycles) * 100
}

// HasSpillCode reports whether any allocation *contains* spill code —
// the paper's rule for leaving a Table 1 entry blank ("if the allocated
// code does not contain spill code").
func (m Measurement) HasSpillCode() bool {
	return m.GRASpillOps+m.RAPSpillOps+m.IRCSpillOps > 0
}

// CompareConfig tunes a Compare run.
type CompareConfig struct {
	Lower lower.Options
	RAP   rap.Options
	// GRAPeephole gives the baseline the Fig. 6 cleanup too (ablation).
	GRAPeephole bool
	// Verify additionally runs the static allocation verifier
	// (internal/verify) on every allocated program, proving the k-bound,
	// interference-freedom and spill balance against the unallocated
	// reference — independent of the differential interpreter check.
	Verify bool
	// Funcs restricts measurement to these routines (nil = all executed).
	Funcs []string
	// Parallel is the width of the bench harness's (program, k) worker
	// pool (internal/bench); 0 or 1 means sequential. A single
	// CompareContext ignores it and runs its ks in order.
	Parallel int
	// Trace observes every compilation and interpreter run the
	// comparison performs. The runs are timed under the "interp" span;
	// their "interp.total.*" counters and "interp.func.cycles" histogram
	// sum over the reference and all three allocations (the
	// per-allocator counts are in the returned Measurements).
	Trace *obs.Tracer
}

// run executes one program of the comparison on the interpreter, stopping
// early (with ctx's error) if ctx is cancelled mid-run.
func (cfg CompareConfig) run(ctx context.Context, p *ir.Program) (*interp.Result, error) {
	return interp.Run(p, interp.Options{Context: ctx, Tracer: cfg.Trace})
}

// staticSpillOps counts lds/sts instructions in a compiled routine.
func staticSpillOps(f *ir.Function) int {
	if f == nil {
		return 0
	}
	n := 0
	for _, in := range f.Instrs {
		if in.Op == ir.OpLdSpill || in.Op == ir.OpStSpill {
			n++
		}
	}
	return n
}

// staticSize counts a routine's non-label instructions.
func staticSize(f *ir.Function) int {
	if f == nil {
		return 0
	}
	n := 0
	for _, in := range f.Instrs {
		if in.Op != ir.OpLabel {
			n++
		}
	}
	return n
}

// RefRun is a compiled and executed unallocated reference program — the
// oracle every allocation is validated against. One RefRun may be shared
// by any number of concurrent CompareAtKContext calls; it is read-only
// after CompileRef returns.
type RefRun struct {
	Prog *ir.Program
	Res  *interp.Result
}

// CompileRef builds and runs the unallocated reference for src.
func CompileRef(src string, cfg CompareConfig) (*RefRun, error) {
	ref, err := Compile(src, Config{Lower: cfg.Lower, Trace: cfg.Trace})
	if err != nil {
		return nil, err
	}
	res, err := cfg.run(context.Background(), ref)
	if err != nil {
		return nil, fmt.Errorf("unallocated run: %w", err)
	}
	return &RefRun{Prog: ref, Res: res}, nil
}

// verifyAllocation runs the static verifier over one allocated program,
// recording pass/fail counters on the comparison's metrics registry.
func verifyAllocation(label string, ref *RefRun, alloc *ir.Program, k int, cfg CompareConfig) error {
	m := cfg.Trace.Metrics()
	m.Add("verify.programs", 1)
	err := verify.Program(ref.Prog, alloc, k, verify.Options{})
	if err != nil {
		m.Add("verify.failures", 1)
		return fmt.Errorf("%s k=%d failed verification: %w", label, k, err)
	}
	return nil
}

// CompareAtKContext measures one register set size against a prepared
// reference: compile src under GRA, RAP and IRC at k, run all three,
// verify behaviour (and, with cfg.Verify, the static allocation
// invariants), and report per-routine statistics. It is the unit of work
// the parallel harness fans out; ctx cancellation is observed between
// phases.
func CompareAtKContext(ctx context.Context, src string, k int, cfg CompareConfig, ref *RefRun) ([]Measurement, error) {
	confs := [...]Config{
		{Allocator: AllocGRA, K: k, Lower: cfg.Lower, GRAPeephole: cfg.GRAPeephole, Trace: cfg.Trace},
		{Allocator: AllocRAP, K: k, Lower: cfg.Lower, RAP: cfg.RAP, Trace: cfg.Trace},
		{Allocator: AllocIRC, K: k, Lower: cfg.Lower, Trace: cfg.Trace},
	}
	var progs [len(confs)]*ir.Program
	var runs [len(confs)]*interp.Result
	for i, conf := range confs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := Compile(src, conf)
		if err != nil {
			return nil, fmt.Errorf("%s k=%d: %w", conf.Allocator, k, err)
		}
		if cfg.Verify {
			if err := verifyAllocation(string(conf.Allocator), ref, p, k, cfg); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := cfg.run(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("%s k=%d run: %w", conf.Allocator, k, err)
		}
		if err := testutil.SameBehaviour(ref.Res, res); err != nil {
			return nil, fmt.Errorf("%s k=%d changed behaviour: %w", conf.Allocator, k, err)
		}
		progs[i], runs[i] = p, res
	}
	names := cfg.Funcs
	if names == nil {
		names = runs[0].FuncNames()
	}
	var out []Measurement
	for _, name := range names {
		g, r, c := runs[0].PerFunc[name], runs[1].PerFunc[name], runs[2].PerFunc[name]
		if g == nil || r == nil || c == nil {
			continue
		}
		gf, rf, cf := progs[0].Func(name), progs[1].Func(name), progs[2].Func(name)
		out = append(out, Measurement{
			Func: name, K: k, GRA: *g, RAP: *r, IRC: *c,
			GRASpillOps: staticSpillOps(gf),
			RAPSpillOps: staticSpillOps(rf),
			IRCSpillOps: staticSpillOps(cf),
			GRASize:     staticSize(gf),
			RAPSize:     staticSize(rf),
			IRCSize:     staticSize(cf),
		})
	}
	return out, nil
}

// Compare is CompareContext with a background context.
func Compare(src string, ks []int, cfg CompareConfig) ([]Measurement, error) {
	return CompareContext(context.Background(), src, ks, cfg)
}

// CompareContext compiles src under GRA, RAP and IRC for each register
// set size, in order, and measures per-routine executed cycles, loads,
// stores and copies. It verifies that the allocations preserve the
// unallocated program's behaviour and returns measurements keyed in the
// order: for each k, each measured routine sorted by name. Cancelling
// ctx stops the comparison at its next phase boundary and returns ctx's
// error.
func CompareContext(ctx context.Context, src string, ks []int, cfg CompareConfig) ([]Measurement, error) {
	ref, err := CompileRef(src, cfg)
	if err != nil {
		return nil, err
	}
	var out []Measurement
	for _, k := range ks {
		ms, err := CompareAtKContext(ctx, src, k, cfg, ref)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}
