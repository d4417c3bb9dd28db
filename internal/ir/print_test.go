package ir_test

// The textual IR is printed with strconv appends (Instr.AppendText). The
// fmt-based renderer it replaced is kept here as the oracle: every
// program, function and instruction must print byte-identically.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/randprog"
)

func fmtReg(r ir.Reg) string {
	if r == ir.None {
		return "_"
	}
	return fmt.Sprintf("r%d", int(r))
}

func fmtOp(o ir.Op) string {
	if o >= 0 && o < ir.NumOps {
		return o.String()
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

func fmtInstr(in *ir.Instr) string {
	switch in.Op {
	case ir.OpLabel:
		return in.Label + ":"
	case ir.OpLoadI:
		return fmt.Sprintf("loadI %d => %s", in.Imm, fmtReg(in.Dst))
	case ir.OpLoadF:
		return fmt.Sprintf("loadF %g => %s", in.FImm, fmtReg(in.Dst))
	case ir.OpLea:
		return fmt.Sprintf("lea %d => %s", in.Imm, fmtReg(in.Dst))
	case ir.OpLoad:
		return fmt.Sprintf("ldm %s => %s", fmtReg(in.Src1), fmtReg(in.Dst))
	case ir.OpStore:
		return fmt.Sprintf("stm %s => %s", fmtReg(in.Src1), fmtReg(in.Src2))
	case ir.OpLoadAI:
		return fmt.Sprintf("loadAI %s, %d => %s", fmtReg(in.Src1), in.Imm, fmtReg(in.Dst))
	case ir.OpStoreAI:
		return fmt.Sprintf("storeAI %s => %s, %d", fmtReg(in.Src1), fmtReg(in.Src2), in.Imm)
	case ir.OpLdSpill:
		return fmt.Sprintf("lds %d => %s", in.Imm, fmtReg(in.Dst))
	case ir.OpStSpill:
		return fmt.Sprintf("sts %s => %d", fmtReg(in.Src1), in.Imm)
	case ir.OpCBr:
		return fmt.Sprintf("cbr %s -> %s, %s", fmtReg(in.Src1), in.Label, in.Label2)
	case ir.OpJump:
		return fmt.Sprintf("jump -> %s", in.Label)
	case ir.OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmtReg(a)
		}
		s := fmt.Sprintf("call %s(%s)", in.Callee, strings.Join(args, ", "))
		if in.Dst != ir.None {
			s += " => " + fmtReg(in.Dst)
		}
		return s
	case ir.OpRet:
		if in.Src1 == ir.None {
			return "ret"
		}
		return fmt.Sprintf("ret %s", fmtReg(in.Src1))
	case ir.OpPrint:
		return fmt.Sprintf("print %s", fmtReg(in.Src1))
	case ir.OpFPrint:
		return fmt.Sprintf("fprint %s", fmtReg(in.Src1))
	case ir.OpArg:
		return fmt.Sprintf("arg %s", fmtReg(in.Src1))
	case ir.OpGetParam:
		return fmt.Sprintf("getparam %d => %s", in.Imm, fmtReg(in.Dst))
	}
	if in.Op.IsBinaryALU() {
		return fmt.Sprintf("%s %s, %s => %s", fmtOp(in.Op), fmtReg(in.Src1), fmtReg(in.Src2), fmtReg(in.Dst))
	}
	if in.Op.IsUnaryALU() {
		return fmt.Sprintf("%s %s => %s", fmtOp(in.Op), fmtReg(in.Src1), fmtReg(in.Dst))
	}
	return fmt.Sprintf("%s?", fmtOp(in.Op))
}

func fmtFunction(f *ir.Function) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s params=%d locals=%d", f.Name, f.NumParams, f.LocalWords)
	if f.Allocated {
		fmt.Fprintf(&b, " k=%d spills=%d", f.K, f.SpillSlots)
		if f.ABI {
			b.WriteString(" abi=1")
		}
	}
	b.WriteString("\n")
	for _, in := range f.Instrs {
		if in.Op == ir.OpLabel {
			fmt.Fprintf(&b, "%s\n", fmtInstr(in))
		} else {
			fmt.Fprintf(&b, "    %s\n", fmtInstr(in))
		}
	}
	b.WriteString("end\n")
	return b.String()
}

func fmtProgram(p *ir.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "globals %d\n", p.GlobalWords)
	addrs := make([]int64, 0, len(p.GlobalInit))
	for a := range p.GlobalInit {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(&b, "init %d = %d\n", a, p.GlobalInit[a])
	}
	for _, f := range p.Funcs {
		b.WriteString(fmtFunction(f))
	}
	return b.String()
}

// samePrint fails the test at the first line where p's printing and the
// fmt oracle's differ.
func samePrint(t *testing.T, label string, p *ir.Program) {
	t.Helper()
	got, want := p.String(), fmtProgram(p)
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d prints %q, fmt prints %q", label, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines printed, fmt prints %d", label, len(g), len(w))
}

// TestPrintGoldenCorpus: the interpreter's golden corpus was written by
// the fmt renderer, so every file must parse and print back to itself.
func TestPrintGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "golden", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.ParseProgram(string(text))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		samePrint(t, path, p)
		if got := p.String(); got != string(text) {
			t.Fatalf("%s: does not print back to its own text", path)
		}
	}
}

var printAllocs = []core.Allocator{core.AllocNone, core.AllocGRA, core.AllocRAP, core.AllocIRC}

func TestPrintTable1Suite(t *testing.T) {
	ks := []int{3, 5, 7, 9}
	if testing.Short() {
		ks = []int{3}
	}
	for _, bp := range bench.Programs() {
		for _, a := range printAllocs {
			for _, k := range ks {
				p, err := core.Compile(bp.Source, core.Config{Allocator: a, K: k})
				if err != nil {
					t.Fatalf("%s %s k=%d: %v", bp.Name, a, k, err)
				}
				samePrint(t, fmt.Sprintf("%s %s k=%d", bp.Name, a, k), p)
			}
		}
	}
}

func TestPrintRandprog(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 15
	}
	for seed := int64(0); seed < n; seed++ {
		src := randprog.Generate(seed, randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 5, MaxDepth: 2, Floats: true})
		for _, a := range printAllocs {
			p, err := core.Compile(src, core.Config{Allocator: a, K: 3})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, a, err)
			}
			samePrint(t, fmt.Sprintf("seed %d %s", seed, a), p)
		}
	}
}

// TestPrintEveryOpcode builds instructions for every opcode, and for
// opcodes outside the known range, with empty, zero, negative and
// extreme operands.
func TestPrintEveryOpcode(t *testing.T) {
	regs := []ir.Reg{ir.None, 1, 7, 12345, -3}
	imms := []int64{0, -1, 42, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 2.5, -1e300, math.Inf(1), math.Inf(-1), math.NaN(), 1e21, 1e-7, 123456789}
	args := [][]ir.Reg{nil, {}, {4}, {1, ir.None, 9}}
	n := 0
	for op := ir.Op(-2); op < ir.NumOps+3; op++ {
		for i, r := range regs {
			in := &ir.Instr{
				Op:     op,
				Dst:    r,
				Src1:   regs[(i+1)%len(regs)],
				Src2:   regs[(i+2)%len(regs)],
				Imm:    imms[i%len(imms)],
				FImm:   floats[i%len(floats)],
				Label:  []string{"", "L1", "loop.head"}[i%3],
				Label2: []string{"L2", "", "x"}[i%3],
				Callee: []string{"f", "", "main"}[i%3],
				Args:   args[i%len(args)],
			}
			if got, want := in.String(), fmtInstr(in); got != want {
				t.Errorf("%#v: prints %q, fmt prints %q", in, got, want)
			}
			if got, want := string(in.AppendText([]byte("x"))), "x"+fmtInstr(in); got != want {
				t.Errorf("%#v: AppendText gives %q, want %q", in, got, want)
			}
			n++
		}
		if got, want := op.String(), fmtOp(op); got != want {
			t.Errorf("Op %d prints %q, fmt prints %q", int(op), got, want)
		}
	}
	for _, r := range regs {
		if got, want := r.String(), fmtReg(r); got != want {
			t.Errorf("Reg %d prints %q, fmt prints %q", int(r), got, want)
		}
	}
	t.Logf("%d instructions", n)
}

// TestPrintLoadFMatchesPercentG: loadF's immediate prints as %g would,
// over special values and random bit patterns.
func TestPrintLoadFMatchesPercentG(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022,
		1, 0.1, 1e20, 1e21, 1e-4, 1e-5, 123456, 1234567, 100000, 1e6, 3.0000000000000004}
	rng := rand.New(rand.NewSource(1994))
	count := 200000
	if testing.Short() {
		count = 20000
	}
	for range count {
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*1e6, float64(rng.Int63n(1<<40)))
	}
	for _, v := range vals {
		in := &ir.Instr{Op: ir.OpLoadF, FImm: v, Dst: 3}
		if got, want := in.String(), fmtInstr(in); got != want {
			t.Fatalf("%v (bits %#x): prints %q, fmt prints %q", v, math.Float64bits(v), got, want)
		}
	}
}

// TestProgramStringAllocatesOnce: Program.String measures its text
// before writing it into a builder grown once to that length, and
// formats each line in one reused buffer, so printing a Table 1
// program, allocated or not, takes at most three allocations (the text,
// the line buffer, the sorted global addresses) however long the program
// is.
func TestProgramStringAllocatesOnce(t *testing.T) {
	for _, bp := range bench.Programs() {
		for _, a := range printAllocs {
			p, err := core.Compile(bp.Source, core.Config{Allocator: a, K: 5})
			if err != nil {
				t.Fatalf("%s %s: %v", bp.Name, a, err)
			}
			if n := testing.AllocsPerRun(5, func() { _ = p.String() }); n > 3 {
				t.Errorf("%s %s: String made %.0f allocations, want at most 3", bp.Name, a, n)
			}
		}
	}
}
