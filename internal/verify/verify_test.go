package verify_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
	"repro/internal/verify"
)

// compilePair compiles src unallocated and under cfg, failing the test on
// any compile error.
func compilePair(t *testing.T, src string, cfg core.Config) (orig, alloc *ir.Program) {
	t.Helper()
	orig, err := core.Compile(src, core.Config{Lower: cfg.Lower})
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	alloc, err = core.Compile(src, cfg)
	if err != nil {
		t.Fatalf("%s k=%d compile: %v", cfg.Allocator, cfg.K, err)
	}
	return orig, alloc
}

// TestVerifyBenchSuite proves the verifier accepts every real allocation
// the paper's evaluation produces: the benchmark suite under GRA, RAP and
// the naive oracle at every register set size, plus the ablation
// configurations.
func TestVerifyBenchSuite(t *testing.T) {
	ks := []int{3, 5, 7, 9}
	progs := []string{"sieve", "hanoi", "hsort", "queens", "intmm"}
	configs := []struct {
		label string
		cfg   core.Config
	}{
		{"gra", core.Config{Allocator: core.AllocGRA}},
		{"rap", core.Config{Allocator: core.AllocRAP}},
		{"naive", core.Config{Allocator: core.AllocNaive}},
		{"irc", core.Config{Allocator: core.AllocIRC}},
		{"gra+peephole", core.Config{Allocator: core.AllocGRA, GRAPeephole: true}},
		{"rap-merged", core.Config{Allocator: core.AllocRAP, Lower: lower.Options{MergeStatements: true}}},
	}
	if testing.Short() {
		ks = []int{3, 7}
		progs = []string{"sieve", "hsort"}
		configs = configs[:3]
	}
	for _, name := range progs {
		prog := bench.ProgramByName(name)
		if prog == nil {
			t.Fatalf("benchmark %q missing", name)
		}
		for _, c := range configs {
			for _, k := range ks {
				cfg := c.cfg
				cfg.K = k
				orig, alloc := compilePair(t, prog.Source, cfg)
				if err := verify.Program(orig, alloc, k, verify.Options{}); err != nil {
					t.Errorf("%s %s k=%d: %v", name, c.label, k, err)
				}
			}
		}
	}
}

// TestVerifyRandomPrograms runs the verifier over randomly generated
// programs — the same population the fuzz harness draws from.
func TestVerifyRandomPrograms(t *testing.T) {
	seeds, ks := int64(12), []int{3, 5, 9}
	if testing.Short() {
		seeds, ks = 4, []int{3, 9}
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		for _, alloc := range []core.Allocator{core.AllocGRA, core.AllocRAP, core.AllocNaive} {
			for _, k := range ks {
				orig, allocated := compilePair(t, src, core.Config{Allocator: alloc, K: k})
				if err := verify.Program(orig, allocated, k, verify.Options{}); err != nil {
					t.Errorf("seed %d %s k=%d: %v\n%s", seed, alloc, k, err, src)
				}
			}
		}
	}
}

// TestFactsMatchDense checks the fact dataflow's entry states, shared
// and written sets solved by the changed-block sweep, against the dense
// round-robin oracle, block by block and location by location.
func TestFactsMatchDense(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		for _, alloc := range []core.Allocator{core.AllocGRA, core.AllocRAP, core.AllocIRC} {
			for _, k := range []int{3, 5, 7, 9} {
				orig, allocated := compilePair(t, src, core.Config{Allocator: alloc, K: k})
				if err := verify.FactsMatchDense(orig, allocated, k); err != nil {
					t.Errorf("seed %d %s k=%d: %v", seed, alloc, k, err)
				}
			}
		}
	}
}

// corrupt applies mutate to the named function of alloc and returns
// whether it made a change.
func corrupt(alloc *ir.Program, fn string, mutate func(*ir.Function) bool) bool {
	f := alloc.Func(fn)
	if f == nil {
		return false
	}
	return mutate(f)
}

// TestVerifyFlagsCorruptedColoring is the mutation self-test the paper's
// invariants demand: flipping one definition's assigned register (one
// node of the interference graph gets the wrong colour) must be caught.
func TestVerifyFlagsCorruptedColoring(t *testing.T) {
	prog := bench.ProgramByName("sieve")
	for _, ac := range []core.Allocator{core.AllocGRA, core.AllocRAP} {
		k := 5
		orig, alloc := compilePair(t, prog.Source, core.Config{Allocator: ac, K: k})
		if err := verify.Program(orig, alloc, k, verify.Options{}); err != nil {
			t.Fatalf("%s pre-mutation: %v", ac, err)
		}
		// Flip the register of the last definition in main — the value
		// feeding the final ret — to a different physical register.
		flipped := corrupt(alloc, "main", func(f *ir.Function) bool {
			for i := len(f.Instrs) - 1; i >= 0; i-- {
				in := f.Instrs[i]
				if d := in.Def(); d != ir.None {
					in.SetDef(ir.Reg(int(d)%k) + 1)
					return true
				}
			}
			return false
		})
		if !flipped {
			t.Fatalf("%s: no definition found to corrupt", ac)
		}
		if err := verify.FactsMatchDense(orig, alloc, k); err != nil {
			t.Errorf("%s corrupted: %v", ac, err)
		}
		err := verify.Program(orig, alloc, k, verify.Options{})
		if err == nil {
			t.Fatalf("%s: corrupted coloring not flagged", ac)
		}
		if !strings.Contains(err.Error(), "does not hold the value") &&
			!strings.Contains(err.Error(), "overwrites the only copy") {
			t.Errorf("%s: unexpected diagnostic: %v", ac, err)
		}
	}
}

// TestVerifyFlagsUnbalancedSpill is the second mutation self-test:
// redirecting one spill store to a fresh slot leaves its paired load
// reading a slot nothing stores — the verifier must flag the imbalance.
func TestVerifyFlagsUnbalancedSpill(t *testing.T) {
	prog := bench.ProgramByName("hsort")
	k := 3
	for _, ac := range []core.Allocator{core.AllocGRA, core.AllocRAP} {
		orig, alloc := compilePair(t, prog.Source, core.Config{Allocator: ac, K: k})
		if err := verify.Program(orig, alloc, k, verify.Options{}); err != nil {
			t.Fatalf("%s pre-mutation: %v", ac, err)
		}
		moved := false
		for _, f := range alloc.Funcs {
			if moved {
				break
			}
			// Pick a store whose slot is also loaded, and move the store
			// to a freshly reserved slot.
			loaded := map[int64]bool{}
			for _, in := range f.Instrs {
				if in.Op == ir.OpLdSpill {
					loaded[in.Imm] = true
				}
			}
			for _, in := range f.Instrs {
				if in.Op == ir.OpStSpill && loaded[in.Imm] {
					in.Imm = int64(f.SpillSlots)
					f.SpillSlots++
					moved = true
					break
				}
			}
		}
		if !moved {
			t.Fatalf("%s k=%d: no load/store spill pair found to unbalance", ac, k)
		}
		if err := verify.FactsMatchDense(orig, alloc, k); err != nil {
			t.Errorf("%s unbalanced: %v", ac, err)
		}
		if err := verify.Program(orig, alloc, k, verify.Options{}); err == nil {
			t.Fatalf("%s: unbalanced spill pair not flagged", ac)
		}
	}
}

// TestVerifyStructural covers the cheap structural rejections.
func TestVerifyStructural(t *testing.T) {
	prog := bench.ProgramByName("sieve")
	orig, alloc := compilePair(t, prog.Source, core.Config{Allocator: core.AllocGRA, K: 5})

	if err := verify.Program(orig, alloc, 7, verify.Options{}); err == nil {
		t.Error("wrong k not flagged")
	}
	if err := verify.Program(orig, orig, 5, verify.Options{}); err == nil {
		t.Error("unallocated code accepted as an allocation")
	}

	dropped := alloc.Clone()
	dropped.Funcs = dropped.Funcs[:len(dropped.Funcs)-1]
	if err := verify.Program(orig, dropped, 5, verify.Options{}); err == nil {
		t.Error("dropped function not flagged")
	}

	// A definition moved just past the register file, or far past it,
	// fails the k-bound check. Code that names only k registers holds at
	// most k live values, so this check also stands for register
	// pressure.
	for _, r := range []ir.Reg{6, 99} {
		rogue := alloc.Clone()
		for _, in := range rogue.Funcs[0].Instrs {
			if in.Def() != ir.None {
				in.SetDef(r)
				break
			}
		}
		err := verify.Program(orig, rogue, 5, verify.Options{})
		if err == nil || !strings.Contains(err.Error(), "outside [1,5]") {
			t.Errorf("definition moved to %s: got %v, want a k-bound rejection", r, err)
		}
	}

	grown := alloc.Clone()
	grown.GlobalWords++
	if err := verify.Program(orig, grown, 5, verify.Options{}); err == nil {
		t.Error("changed global frame not flagged")
	}
}
