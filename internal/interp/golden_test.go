package interp_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/randprog"
)

var update = flag.Bool("update", false, "recompile testdata/golden/*.ir and rewrite want.json with the current interpreter")

const goldenDir = "testdata/golden"

// goldenWant is one corpus program's recorded run.
type goldenWant struct {
	Output  []string                `json:"output"`
	Ret     int64                   `json:"ret"`
	PerFunc map[string]interp.Stats `json:"per_func"`
}

// goldenCase is one compiled corpus program.
type goldenCase struct {
	name  string
	src   string
	alloc core.Allocator
	k     int
}

// goldenCorpus lists the compiled part of the corpus: every Table 1
// program under GRA, RAP and IRC (k rotating over the paper's sizes), the
// extra suite and a few random programs under every allocator, and two
// unallocated programs that run on register windows of virtual registers.
// Hand-written *.ir files in testdata/golden (ops.ir) cover what the
// compiler never emits, such as register-passed call arguments.
func goldenCorpus() []goldenCase {
	var cs []goldenCase
	allocs := []core.Allocator{core.AllocGRA, core.AllocRAP, core.AllocIRC}
	for i, p := range bench.Programs() {
		k := bench.Ks[i%len(bench.Ks)]
		for _, a := range allocs {
			cs = append(cs, goldenCase{fmt.Sprintf("%s-%s-k%d", p.Name, a, k), p.Source, a, k})
		}
	}
	more := append([]core.Allocator{core.AllocNaive}, allocs...)
	for i, p := range bench.ExtraPrograms() {
		a, k := more[i%len(more)], 3+2*(i%4)
		cs = append(cs, goldenCase{fmt.Sprintf("%s-%s-k%d", p.Name, a, k), p.Source, a, k})
	}
	small := randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 4, MaxDepth: 2, Floats: true}
	for seed := int64(1); seed <= 6; seed++ {
		a, k := more[seed%int64(len(more))], 3+int(seed%3)*2
		cs = append(cs, goldenCase{fmt.Sprintf("rand%d-%s-k%d", seed, a, k), randprog.Generate(seed, small), a, k})
	}
	cs = append(cs,
		goldenCase{"hanoi-none", bench.ProgramByName("hanoi").Source, core.AllocNone, 0},
		goldenCase{"rand7-none", randprog.Generate(7, small), core.AllocNone, 0},
	)
	return cs
}

// writeGolden compiles the corpus into testdata/golden and records every
// program's run. Each program is checked to survive the trip through
// its IR text: the parsed program prints back to the same text and runs
// to the same result as the compiled one.
func writeGolden(t *testing.T) {
	for _, c := range goldenCorpus() {
		p, err := core.Compile(c.src, core.Config{Allocator: c.alloc, K: c.k})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		text := p.String()
		parsed, err := ir.ParseProgram(text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if parsed.String() != text {
			t.Fatalf("%s: IR text does not round-trip", c.name)
		}
		want, err := interp.Run(p, interp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := interp.Run(parsed, interp.Options{})
		if err != nil {
			t.Fatalf("%s: parsed: %v", c.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: parsed program runs differently", c.name)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, c.name+".ir"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wants := map[string]goldenWant{}
	for name, p := range readCorpus(t) {
		res, err := interp.Run(p, interp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := goldenWant{Output: res.Output, Ret: res.Ret, PerFunc: map[string]interp.Stats{}}
		for f, st := range res.PerFunc {
			w.PerFunc[f] = *st
		}
		wants[name] = w
	}
	b, err := json.MarshalIndent(wants, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "want.json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "ops.trace"), []byte(traceOps(t)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// traceOps runs ops.ir with an instruction trace.
func traceOps(t *testing.T) string {
	t.Helper()
	var buf strings.Builder
	if _, err := interp.Run(readCorpus(t)["ops"], interp.Options{Trace: &buf}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTraceGolden pins the trace's line format, including the original
// instruction index (labels count) and the program-wide cycle column,
// across calls and recursion.
func TestTraceGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenDir, "ops.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if got := traceOps(t); got != string(want) {
		t.Errorf("trace differs from ops.trace:\n%s", got)
	}
}

// readCorpus parses every testdata/golden/*.ir, checking that each file
// is exactly the text its parsed program prints.
func readCorpus(t *testing.T) map[string]*ir.Program {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus in %s: %v", goldenDir, err)
	}
	progs := map[string]*ir.Program{}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.ParseProgram(string(b))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if p.String() != string(b) {
			t.Errorf("%s: parsed program prints differently from the file", file)
		}
		progs[strings.TrimSuffix(filepath.Base(file), ".ir")] = p
	}
	return progs
}

// TestGoldenCorpus runs every corpus program and compares its output,
// return value and per-function Stats with the run recorded in
// want.json. The recorded runs (and ops.trace) come from the earlier
// execution loop that interpreted ir.Instrs directly, so they are a
// reference independent of the decoded loop. Together the programs
// execute every opcode, spill code, ABI calls, recursion and float
// arithmetic (checked below), so a change to the execution loop that
// moves any count is caught here.
func TestGoldenCorpus(t *testing.T) {
	if *update {
		writeGolden(t)
	}
	b, err := os.ReadFile(filepath.Join(goldenDir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wants map[string]goldenWant
	if err := json.Unmarshal(b, &wants); err != nil {
		t.Fatal(err)
	}
	progs := readCorpus(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != len(wants) {
		t.Errorf("%d corpus programs, %d recorded runs", len(names), len(wants))
	}
	for _, name := range names {
		want, ok := wants[name]
		if !ok {
			t.Errorf("%s: no recorded run", name)
			continue
		}
		res, err := interp.Run(progs[name], interp.Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(res.Output, want.Output) || res.Ret != want.Ret {
			t.Errorf("%s: output/ret differ from the recorded run", name)
		}
		got := map[string]interp.Stats{}
		for f, st := range res.PerFunc {
			got[f] = *st
		}
		if !reflect.DeepEqual(got, want.PerFunc) {
			t.Errorf("%s: per-function stats\n got  %v\n want %v", name, got, want.PerFunc)
		}
	}
	checkCoverage(t, progs)
}

// checkCoverage asserts the corpus keeps covering what it is meant to.
func checkCoverage(t *testing.T, progs map[string]*ir.Program) {
	seen := map[ir.Op]bool{}
	var abi, spills, recursion, regArgs bool
	for _, p := range progs {
		for _, f := range p.Funcs {
			abi = abi || f.ABI
			spills = spills || f.SpillSlots > 0
			for _, in := range f.Instrs {
				seen[in.Op] = true
				recursion = recursion || (in.Op == ir.OpCall && in.Callee == f.Name)
				regArgs = regArgs || (in.Op == ir.OpCall && len(in.Args) > 0)
			}
		}
	}
	for op := ir.Op(0); op < ir.NumOps; op++ {
		if !seen[op] {
			t.Errorf("no corpus program uses %s", op)
		}
	}
	if !abi || !spills || !recursion || !regArgs {
		t.Errorf("corpus coverage: abi=%v spills=%v recursion=%v register-passed args=%v", abi, spills, recursion, regArgs)
	}
}
