// Package interp executes IR programs and gathers the execution statistics
// the paper's evaluation is defined in terms of: cycles (one per
// instruction), loads, stores, and copies executed, attributed to the
// function that executed them.
//
// The interpreter runs both unallocated code (virtual registers) and
// allocated code (k physical registers). Frames normally follow a
// register-window convention: every activation gets a fresh register
// file, so a call neither clobbers nor is clobbered by the caller's
// registers. The same convention applies to both window allocators under
// comparison, keeping the evaluation fair, and mirrors the paper's
// per-routine measurement setup.
//
// Functions marked ir.Function.ABI instead share ONE physical register
// file across the whole call stack: a call really executes in the same
// registers as its caller, and after every call from an ABI function the
// caller-save half of the file is poisoned with ir.ClobberPoison (the
// return value then lands in ir.RetReg). An allocation that leaves a
// live value in a caller-save register across a call, or a callee that
// fails to save/restore a callee-save register, therefore computes
// observably wrong results instead of being silently forgiven by the
// window convention. Spill slots stay per-activation.
//
// Each run decodes every function once before executing it; activations
// nest at most maxCallDepth deep, and deeper recursion is an error.
package interp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/obs"
)

// Stats counts executed instructions by category. The JSON field names
// are part of the serve results' schema ("rap/serve/v1").
type Stats struct {
	Cycles int64 `json:"cycles"` // every non-label instruction
	Loads  int64 `json:"loads"`  // ldm + lds
	Stores int64 `json:"stores"` // stm + sts
	Copies int64 `json:"copies"` // i2i
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.Copies += other.Copies
}

// Options configures execution.
type Options struct {
	// MaxCycles aborts execution after this many cycles (0 means
	// DefaultMaxCycles).
	MaxCycles int64
	// StackWords is the most memory frames may use beyond the globals
	// (0 means the default of 1 << 22): a frame that would end past
	// GlobalWords+StackWords is a stack overflow, and an address at or
	// past it is out of range. It is a limit, not a reservation: memory
	// starts at the globals plus a small stack and grows as stores reach
	// further.
	StackWords int64
	// Trace, when non-nil, receives one line per executed instruction
	// ("<func>\t<index>\t<cycle>\t<instruction>", where <cycle> is the
	// program-wide executed-cycle count at that instruction) — a
	// debugging aid; tracing does not affect the counted statistics.
	Trace io.Writer
	// Tracer, when non-nil, times the run under the "interp" span and
	// publishes the run's summary through the attached metrics registry:
	// counters "interp.total.<cycles|loads|stores|copies>" and one
	// "interp.func.cycles" histogram sample per executed function.
	Tracer *obs.Tracer
	// Context, when non-nil, is polled periodically (every few thousand
	// cycles) so a cancellation or deadline aborts a long-running or
	// non-terminating program with the context's error.
	Context context.Context
}

// DefaultMaxCycles is the cycle budget of a run whose Options set none.
const DefaultMaxCycles = 500_000_000

// maxCallDepth bounds the activations live at once. Unbounded MiniC
// recursion would otherwise grow the Go stack until the runtime kills
// the whole process, which no caller can recover from. The deepest
// recursion in the Table 1 and extra suites is 64 activations
// (ackermann).
const maxCallDepth = 1 << 14

// initialStackWords is the stack memory a run starts with; memory then
// doubles on demand up to GlobalWords+StackWords.
const initialStackWords = 1 << 12

// pollEvery is the period, in cycles, of the context polls, which fall on
// cycles 1, 1+pollEvery, 1+2*pollEvery, ... (polling every cycle would
// put two atomic loads on the hot path).
const pollEvery = 8193

// Result is the outcome of a program run.
type Result struct {
	// Output is the sequence of print lines the program produced.
	Output []string
	// PerFunc attributes stats to the function that executed each
	// instruction (exclusive, not inclusive of callees).
	PerFunc map[string]*Stats
	// Total sums PerFunc.
	Total Stats
	// Ret is main's return value.
	Ret int64
}

// FuncNames returns the measured function names in sorted order.
func (r *Result) FuncNames() []string {
	names := make([]string, 0, len(r.PerFunc))
	for n := range r.PerFunc {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fn is a function decoded for one run.
type fn struct {
	f    *ir.Function
	code []inst
	// nregs is the register file size: NextReg for virtual registers,
	// K+1 for allocated code.
	nregs int
	// regErr reports a register operand outside the file. It is returned
	// when the function is called, so a malformed function that never
	// runs does not fail the program.
	regErr error
	// st is the function's entry in Result.PerFunc, created on its first
	// call so that only executed functions are measured.
	st *Stats
}

// inst is one decoded instruction. Labels are dropped (they cost no
// cycles), so branch targets are indices into fn.code.
type inst struct {
	op        ir.Op
	dst, a, b ir.Reg
	// imm is the immediate operand; loadF's float bits.
	imm int64
	// target is the jump target or cbr's true target, alt cbr's false
	// target; -1 when the label does not exist, which is an error only
	// when the branch goes there.
	target, alt int32
	// pc indexes the instruction in ir.Function.Instrs, for the trace and
	// error messages.
	pc     int32
	callee *fn // nil when no function has the name
}

type machine struct {
	// mem holds the globals and the stack. It grows on demand; a word
	// past len(mem) but below limit has never been written and reads 0.
	mem      []int64
	limit    int64
	stackTop int64
	res      *Result
	// argStack holds outgoing call arguments pushed by OpArg; OpCall pops
	// the callee's parameter count (memory-style argument passing, so a
	// call never needs all arguments in registers at once).
	argStack []int64
	// frames is the stack the activations' register windows, spill slots
	// and arguments are cut from; top is its used prefix.
	frames []int64
	top    int
	depth  int
	// physRegs is the shared physical register file used by ABI
	// functions, sized once at Run for the largest ABI register set in
	// the program (so activations alias a stable slice across recursion).
	physRegs []int64
	// executed is the program-wide cycle count, printed as the trace's
	// cycle column. Every cycle past quiet takes the slow path (trace,
	// budget, context poll); see schedule.
	executed  int64
	quiet     int64
	maxCycles int64
	ctx       context.Context
	nextPoll  int64
	trace     io.Writer
}

// Run executes p starting at main.
func Run(p *ir.Program, opts Options) (*Result, error) {
	fns := decode(p)
	main := fns["main"]
	if main == nil {
		return nil, fmt.Errorf("interp: program has no main")
	}
	if opts.MaxCycles == 0 {
		opts.MaxCycles = DefaultMaxCycles
	}
	if opts.StackWords == 0 {
		opts.StackWords = 1 << 22
	}
	m := &machine{
		limit:     p.GlobalWords + opts.StackWords,
		stackTop:  p.GlobalWords,
		res:       &Result{PerFunc: map[string]*Stats{}},
		maxCycles: opts.MaxCycles,
		ctx:       opts.Context,
		nextPoll:  1,
		trace:     opts.Trace,
	}
	m.mem = make([]int64, max(0, min(m.limit, p.GlobalWords+initialStackWords)))
	for a, v := range p.GlobalInit {
		if a < 0 || a >= m.limit {
			return nil, fmt.Errorf("interp: global initializer address %d out of range", a)
		}
		if a >= int64(len(m.mem)) {
			m.grow(a)
		}
		m.mem[a] = v
	}
	maxABI := 0
	for _, f := range p.Funcs {
		if f.ABI && f.Allocated && f.K+1 > maxABI {
			maxABI = f.K + 1
		}
	}
	m.physRegs = make([]int64, maxABI)
	m.schedule()
	span := opts.Tracer.StartSpan("interp")
	ret, err := m.call(main, nil)
	span.End()
	if err != nil {
		return m.res, err
	}
	m.res.Ret = ret
	for _, st := range m.res.PerFunc {
		m.res.Total.Add(*st)
	}
	m.res.publish(opts.Tracer.Metrics())
	return m.res, nil
}

// decode translates every function once for a run. A call resolves to
// the first function of its name, as Program.Func does.
func decode(p *ir.Program) map[string]*fn {
	fns := make(map[string]*fn, len(p.Funcs))
	for _, f := range p.Funcs {
		if fns[f.Name] == nil {
			fns[f.Name] = &fn{f: f}
		}
	}
	for _, c := range fns {
		c.decode(fns)
	}
	return fns
}

func (c *fn) decode(fns map[string]*fn) {
	f := c.f
	c.nregs = int(f.NextReg)
	if f.Allocated {
		c.nregs = f.K + 1
	}
	var buf []ir.Reg
	for _, in := range f.Instrs {
		buf = in.Uses(buf[:0])
		if d := in.Def(); d != ir.None {
			buf = append(buf, d)
		}
		for _, r := range buf {
			if int(r) >= c.nregs {
				c.regErr = fmt.Errorf("interp: %s: register %s out of range (%d registers)", f.Name, r, c.nregs-1)
				return
			}
		}
	}
	// A label marks the next real instruction; a repeated label means
	// its last occurrence, as in ir.Function.LabelIndex.
	at := map[string]int32{}
	n := int32(0)
	for _, in := range f.Instrs {
		if in.Op == ir.OpLabel {
			at[in.Label] = n
		} else {
			n++
		}
	}
	target := func(label string) int32 {
		if t, ok := at[label]; ok {
			return t
		}
		return -1
	}
	c.code = make([]inst, 0, n)
	for pc, in := range f.Instrs {
		if in.Op == ir.OpLabel {
			continue
		}
		d := inst{op: in.Op, dst: in.Dst, a: in.Src1, b: in.Src2, imm: in.Imm, pc: int32(pc)}
		switch in.Op {
		case ir.OpLoadF:
			d.imm = f2b(in.FImm)
		case ir.OpJump:
			d.target = target(in.Label)
		case ir.OpCBr:
			d.target, d.alt = target(in.Label), target(in.Label2)
		case ir.OpCall:
			d.callee = fns[in.Callee]
		}
		c.code = append(c.code, d)
	}
}

// schedule sets the cycle count past which the loop takes the slow path:
// every cycle while tracing, else the next context poll or the end of
// the budget, whichever comes first.
func (m *machine) schedule() {
	m.quiet = m.maxCycles
	if m.ctx != nil {
		m.quiet = min(m.quiet, m.nextPoll-1)
	}
	if m.trace != nil {
		m.quiet = math.MinInt64
	}
}

// slow runs the per-cycle checks, in the order the trace line, the cycle
// budget and the context poll.
func (m *machine) slow(c *fn, in *inst) error {
	f := c.f
	if m.trace != nil {
		fmt.Fprintf(m.trace, "%s\t%d\t%d\t%s\n", f.Name, in.pc, m.executed, f.Instrs[in.pc])
	}
	if m.executed > m.maxCycles {
		return fmt.Errorf("interp: cycle budget exhausted in %s", f.Name)
	}
	if m.ctx != nil && m.executed >= m.nextPoll {
		m.nextPoll = m.executed + pollEvery
		m.schedule()
		if err := m.ctx.Err(); err != nil {
			return fmt.Errorf("interp: run cancelled in %s: %w", f.Name, err)
		}
	}
	return nil
}

// grow extends memory to cover address a (past its end, below limit),
// at least doubling it.
func (m *machine) grow(a int64) {
	mem := make([]int64, min(max(2*int64(len(m.mem)), a+1), m.limit))
	copy(mem, m.mem)
	m.mem = mem
}

// push cuts n zeroed words off the frame stack. When the stack must grow
// it moves to a new array without copying: the live activations keep
// their slices of the old one.
func (m *machine) push(n int) []int64 {
	end := m.top + n
	if end > len(m.frames) {
		m.frames = make([]int64, max(2*len(m.frames), end, 1024))
	}
	w := m.frames[m.top:end:end]
	clear(w)
	m.top = end
	return w
}

// publish records the run's summary in a metrics registry. Every key is
// fixed: a per-function counter would add keys for each new function
// name a long-lived registry (a serving daemon's) ever sees.
func (r *Result) publish(reg *obs.Metrics) {
	if reg == nil {
		return
	}
	for _, st := range r.PerFunc {
		// One histogram sample per measured function: the distribution
		// of simulated cycle counts across a batch of runs. Cycle counts
		// are deterministic for a deterministic program, so this stays in
		// the snapshot's deterministic sections.
		reg.ObserveVal("interp.func.cycles", st.Cycles)
	}
	reg.Add("interp.total.cycles", r.Total.Cycles)
	reg.Add("interp.total.loads", r.Total.Loads)
	reg.Add("interp.total.stores", r.Total.Stores)
	reg.Add("interp.total.copies", r.Total.Copies)
}

func f2b(f float64) int64 { return int64(math.Float64bits(f)) }
func b2f(b int64) float64 { return math.Float64frombits(uint64(b)) }
func boolTo(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// call runs one activation of c with the given arguments, which it
// copies into the new frame before anything can overwrite them.
func (m *machine) call(c *fn, args []int64) (int64, error) {
	f := c.f
	if m.depth == maxCallDepth {
		return 0, fmt.Errorf("interp: call depth limit exceeded in %s", f.Name)
	}
	if c.regErr != nil {
		return 0, c.regErr
	}
	base := m.top
	var regs []int64
	if f.ABI && f.Allocated {
		// ABI code runs on the shared physical file: the callee sees (and
		// may clobber) the caller's registers, exactly like real hardware.
		regs = m.physRegs[:c.nregs]
	} else {
		regs = m.push(c.nregs)
	}
	spill := m.push(f.SpillSlots)
	params := m.push(len(args))
	copy(params, args)
	localBase := m.stackTop
	if localBase+f.LocalWords > m.limit {
		return 0, fmt.Errorf("interp: stack overflow in %s", f.Name)
	}
	m.stackTop += f.LocalWords
	if c.st == nil {
		c.st = &Stats{}
		m.res.PerFunc[f.Name] = c.st
	}
	m.depth++
	ret, err := m.exec(c, regs, spill, params, localBase)
	m.depth--
	m.stackTop = localBase
	m.top = base
	return ret, err
}

// exec is the execution loop of one activation.
func (m *machine) exec(c *fn, regs, spill, args []int64, localBase int64) (int64, error) {
	f, st, code := c.f, c.st, c.code
	for pc := 0; pc < len(code); {
		in := &code[pc]
		pc++
		st.Cycles++
		m.executed++
		if m.executed > m.quiet {
			if err := m.slow(c, in); err != nil {
				return 0, err
			}
		}
		switch in.op {
		case ir.OpLoadI, ir.OpLoadF:
			regs[in.dst] = in.imm
		case ir.OpLea:
			regs[in.dst] = localBase + in.imm
		case ir.OpGetParam:
			if in.imm < 0 || in.imm >= int64(len(args)) {
				return 0, fmt.Errorf("interp: %s: missing argument %d", f.Name, in.imm)
			}
			regs[in.dst] = args[in.imm]
		case ir.OpAdd:
			regs[in.dst] = regs[in.a] + regs[in.b]
		case ir.OpSub:
			regs[in.dst] = regs[in.a] - regs[in.b]
		case ir.OpMult:
			regs[in.dst] = regs[in.a] * regs[in.b]
		case ir.OpDiv:
			b := regs[in.b]
			if b == 0 {
				return 0, fmt.Errorf("interp: %s: division by zero", f.Name)
			}
			regs[in.dst] = regs[in.a] / b
		case ir.OpMod:
			b := regs[in.b]
			if b == 0 {
				return 0, fmt.Errorf("interp: %s: modulo by zero", f.Name)
			}
			regs[in.dst] = regs[in.a] % b
		case ir.OpCmpLT:
			regs[in.dst] = boolTo(regs[in.a] < regs[in.b])
		case ir.OpCmpLE:
			regs[in.dst] = boolTo(regs[in.a] <= regs[in.b])
		case ir.OpCmpGT:
			regs[in.dst] = boolTo(regs[in.a] > regs[in.b])
		case ir.OpCmpGE:
			regs[in.dst] = boolTo(regs[in.a] >= regs[in.b])
		case ir.OpCmpEQ:
			regs[in.dst] = boolTo(regs[in.a] == regs[in.b])
		case ir.OpCmpNE:
			regs[in.dst] = boolTo(regs[in.a] != regs[in.b])
		case ir.OpFAdd:
			regs[in.dst] = f2b(b2f(regs[in.a]) + b2f(regs[in.b]))
		case ir.OpFSub:
			regs[in.dst] = f2b(b2f(regs[in.a]) - b2f(regs[in.b]))
		case ir.OpFMult:
			regs[in.dst] = f2b(b2f(regs[in.a]) * b2f(regs[in.b]))
		case ir.OpFDiv:
			regs[in.dst] = f2b(b2f(regs[in.a]) / b2f(regs[in.b]))
		case ir.OpFCmpLT:
			regs[in.dst] = boolTo(b2f(regs[in.a]) < b2f(regs[in.b]))
		case ir.OpFCmpLE:
			regs[in.dst] = boolTo(b2f(regs[in.a]) <= b2f(regs[in.b]))
		case ir.OpFCmpGT:
			regs[in.dst] = boolTo(b2f(regs[in.a]) > b2f(regs[in.b]))
		case ir.OpFCmpGE:
			regs[in.dst] = boolTo(b2f(regs[in.a]) >= b2f(regs[in.b]))
		case ir.OpFCmpEQ:
			regs[in.dst] = boolTo(b2f(regs[in.a]) == b2f(regs[in.b]))
		case ir.OpFCmpNE:
			regs[in.dst] = boolTo(b2f(regs[in.a]) != b2f(regs[in.b]))
		case ir.OpNeg:
			regs[in.dst] = -regs[in.a]
		case ir.OpFNeg:
			regs[in.dst] = f2b(-b2f(regs[in.a]))
		case ir.OpNot:
			regs[in.dst] = boolTo(regs[in.a] == 0)
		case ir.OpI2I:
			regs[in.dst] = regs[in.a]
			st.Copies++
		case ir.OpI2F:
			regs[in.dst] = f2b(float64(regs[in.a]))
		case ir.OpF2I:
			regs[in.dst] = int64(b2f(regs[in.a]))
		case ir.OpLoad, ir.OpLoadAI:
			a := regs[in.a] + in.imm // OpLoad has Imm 0
			if a < 0 || a >= m.limit {
				return 0, fmt.Errorf("interp: %s: memory access out of range: %d", f.Name, a)
			}
			var v int64
			if a < int64(len(m.mem)) {
				v = m.mem[a]
			}
			regs[in.dst] = v
			st.Loads++
		case ir.OpStore, ir.OpStoreAI:
			a := regs[in.b] + in.imm
			if a < 0 || a >= m.limit {
				return 0, fmt.Errorf("interp: %s: memory access out of range: %d", f.Name, a)
			}
			if a >= int64(len(m.mem)) {
				m.grow(a)
			}
			m.mem[a] = regs[in.a]
			st.Stores++
		case ir.OpLdSpill:
			if in.imm < 0 || in.imm >= int64(len(spill)) {
				return 0, fmt.Errorf("interp: %s: spill slot %d out of range", f.Name, in.imm)
			}
			regs[in.dst] = spill[in.imm]
			st.Loads++
		case ir.OpStSpill:
			if in.imm < 0 || in.imm >= int64(len(spill)) {
				return 0, fmt.Errorf("interp: %s: spill slot %d out of range", f.Name, in.imm)
			}
			spill[in.imm] = regs[in.a]
			st.Stores++
		case ir.OpCBr:
			t := in.target
			if regs[in.a] == 0 {
				t = in.alt
			}
			if t < 0 {
				label := f.Instrs[in.pc].Label
				if regs[in.a] == 0 {
					label = f.Instrs[in.pc].Label2
				}
				return 0, fmt.Errorf("interp: %s: unknown label %q", f.Name, label)
			}
			pc = int(t)
		case ir.OpJump:
			if in.target < 0 {
				return 0, fmt.Errorf("interp: %s: unknown label %q", f.Name, f.Instrs[in.pc].Label)
			}
			pc = int(in.target)
		case ir.OpArg:
			m.argStack = append(m.argStack, regs[in.a])
		case ir.OpCall:
			orig := f.Instrs[in.pc]
			if in.callee == nil {
				return 0, fmt.Errorf("interp: call to unknown function %q", orig.Callee)
			}
			n := in.callee.f.NumParams
			if len(orig.Args) > 0 {
				// Register-passed arguments (hand-written IR tests).
				for _, r := range orig.Args {
					m.argStack = append(m.argStack, regs[r])
				}
				n = len(orig.Args)
			}
			if len(m.argStack) < n {
				return 0, fmt.Errorf("interp: call to %s with %d staged arguments, need %d", orig.Callee, len(m.argStack), n)
			}
			rest := len(m.argStack) - n
			args := m.argStack[rest:]
			m.argStack = m.argStack[:rest]
			rv, err := m.call(in.callee, args)
			if err != nil {
				return 0, err
			}
			if f.ABI && f.Allocated {
				// The call clobbered every caller-save register; make the
				// damage deterministic so bad allocations fail identically
				// regardless of what the callee happened to compute.
				for r := 1; r <= ir.CallerSaveCount(f.K); r++ {
					regs[r] = ir.ClobberPoison
				}
			}
			if in.dst != ir.None {
				regs[in.dst] = rv
			}
		case ir.OpRet:
			if in.a == ir.None {
				return 0, nil
			}
			return regs[in.a], nil
		case ir.OpPrint:
			m.res.Output = append(m.res.Output, strconv.FormatInt(regs[in.a], 10))
		case ir.OpFPrint:
			m.res.Output = append(m.res.Output, formatFloat(b2f(regs[in.a])))
		default:
			return 0, fmt.Errorf("interp: %s: cannot execute %s", f.Name, f.Instrs[in.pc])
		}
	}
	return 0, nil
}

// formatFloat renders floats deterministically, with a fixed number of
// significant digits so that the output is stable across evaluation
// orders.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	if math.IsNaN(v) {
		return "nan"
	}
	s := strconv.FormatFloat(v, 'g', 12, 64)
	return strings.TrimSuffix(s, ".0")
}
