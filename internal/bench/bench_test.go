package bench_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/testutil"
)

// TestSuiteCompilesAndRuns: every benchmark program compiles, runs on
// virtual registers, and produces some checksum output.
func TestSuiteCompilesAndRuns(t *testing.T) {
	for _, prog := range bench.Programs() {
		t.Run(prog.Name, func(t *testing.T) {
			p, err := core.Compile(prog.Source, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Output) == 0 {
				t.Error("benchmark produced no checksum output")
			}
			// Every routine Table 1 measures must actually execute.
			for _, fn := range prog.Funcs {
				if res.PerFunc[fn] == nil || res.PerFunc[fn].Cycles == 0 {
					t.Errorf("routine %s never executed", fn)
				}
			}
		})
	}
}

// TestSuiteBehaviourPreserved: every allocator preserves each program's
// behaviour at a tight register set (the fuller k sweep runs in the
// harness itself, which verifies behaviour on every run).
func TestSuiteBehaviourPreserved(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by Table1 harness")
	}
	for _, prog := range bench.Programs() {
		t.Run(prog.Name, func(t *testing.T) {
			ref, err := core.Compile(prog.Source, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := core.Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, alloc := range []core.Allocator{core.AllocGRA, core.AllocRAP, core.AllocIRC} {
				p, err := core.Compile(prog.Source, core.Config{Allocator: alloc, K: 4})
				if err != nil {
					t.Fatalf("%s: %v", alloc, err)
				}
				res, err := core.Run(p)
				if err != nil {
					t.Fatalf("%s: %v", alloc, err)
				}
				if err := testutil.SameBehaviour(refRes, res); err != nil {
					t.Errorf("%s: %v", alloc, err)
				}
			}
		})
	}
}

// TestTable1Shape: the harness produces a row for every measured routine
// and renders the table.
func TestTable1Shape(t *testing.T) {
	rows, err := bench.Table1([]int{3}, core.CompareConfig{}, "sieve", "hanoi")
	if err != nil {
		t.Fatal(err)
	}
	want := len(bench.ProgramByName("sieve").Funcs) + len(bench.ProgramByName("hanoi").Funcs)
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	text := bench.Format(rows, []int{3})
	for _, s := range []string{"seive", "nsieve", "mov", "Average", "Wins"} {
		if !strings.Contains(text, s) {
			t.Errorf("formatted table missing %q:\n%s", s, text)
		}
	}
	sums := bench.Summarize(rows, []int{3})
	if len(sums) != 1 || sums[0].Rows != want {
		t.Errorf("summary wrong: %+v", sums)
	}
}

func TestProgramByName(t *testing.T) {
	if bench.ProgramByName("livermore") == nil {
		t.Error("livermore missing")
	}
	if bench.ProgramByName("nope") != nil {
		t.Error("phantom program")
	}
	// The suite should cover the paper's scope: 13 Livermore loops and
	// around 37 measured routines overall.
	if n := len(bench.ProgramByName("livermore").Funcs); n != 13 {
		t.Errorf("livermore has %d loops, want 13", n)
	}
	total := 0
	for _, p := range bench.Programs() {
		total += len(p.Funcs)
	}
	if total < 35 {
		t.Errorf("suite measures %d routines, want >= 35 (paper: 37)", total)
	}
}

func TestWriteCSV(t *testing.T) {
	rows, err := bench.Table1([]int{3}, core.CompareConfig{}, "hanoi")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := bench.WriteCSV(&buf, rows, []int{3}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+len(rows) {
		t.Fatalf("got %d CSV lines, want %d:\n%s", len(lines), 1+len(rows), out)
	}
	if !strings.HasPrefix(lines[0], "program,routine,k,gra_cycles") {
		t.Errorf("bad header: %s", lines[0])
	}
	if !strings.Contains(out, "hanoi,mov,3,") {
		t.Errorf("missing row: %s", out)
	}
}

// TestExtraSuite: the extended validation programs compile, run, and are
// behaviour-preserved under both allocators at a tight register set.
func TestExtraSuite(t *testing.T) {
	for _, prog := range bench.ExtraPrograms() {
		t.Run(prog.Name, func(t *testing.T) {
			ref, err := core.Compile(prog.Source, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := core.Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range prog.Funcs {
				if refRes.PerFunc[fn] == nil || refRes.PerFunc[fn].Cycles == 0 {
					t.Errorf("routine %s never executed", fn)
				}
			}
			for _, alloc := range []core.Allocator{core.AllocGRA, core.AllocRAP, core.AllocIRC} {
				p, err := core.Compile(prog.Source, core.Config{Allocator: alloc, K: 3})
				if err != nil {
					t.Fatalf("%s: %v", alloc, err)
				}
				res, err := core.Run(p)
				if err != nil {
					t.Fatalf("%s: %v", alloc, err)
				}
				if err := testutil.SameBehaviour(refRes, res); err != nil {
					t.Errorf("%s: %v", alloc, err)
				}
			}
		})
	}
}
