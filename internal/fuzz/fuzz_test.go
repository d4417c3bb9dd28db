package fuzz_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/randprog"
)

// TestRunSeedClean: the shipped allocators must survive the differential
// check on a handful of seeds (CI's rapfuzz job covers hundreds more).
func TestRunSeedClean(t *testing.T) {
	seeds := int64(4)
	m := obs.NewMetrics()
	cfg := fuzz.Default()
	cfg.Metrics = m
	if testing.Short() {
		seeds = 2
		cfg.Ks = []int{3, 7}
	}
	for seed := int64(0); seed < seeds; seed++ {
		fail, err := fuzz.RunSeed(context.Background(), seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fail != nil {
			t.Fatalf("seed %d failed: %v\nshrunk:\n%s", seed, fail, fail.Shrunk)
		}
	}
}

// TestRunSeedCancelled: a cancelled session context surfaces as an error,
// not as a spurious failure report.
func TestRunSeedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fail, err := fuzz.RunSeed(ctx, 1, fuzz.Default())
	if err == nil {
		t.Fatalf("expected context error, got failure %v", fail)
	}
}

// flipLastDef is a fault to inject through the Mutate hook: it moves
// main's last definition to another register, a corrupted colouring.
func flipLastDef(p *ir.Program) {
	f := p.Func("main")
	for i := len(f.Instrs) - 1; i >= 0; i-- {
		if d := f.Instrs[i].Def(); d != ir.None {
			f.Instrs[i].SetDef(ir.Reg(int(d)%f.K) + 1)
			return
		}
	}
}

// TestShrinkReproducer injects a fault through the Mutate hook — flip
// one definition's register in main, a corrupted coloring — and checks
// that the harness catches it and shrinks the reproducer below 30 lines
// (the acceptance bound for actionable fuzz reports).
func TestShrinkReproducer(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking compiles many candidate programs; skipped under -short")
	}
	cfg := fuzz.Default()
	cfg.Gen = randprog.Config{MaxFuncs: 2, MaxStmtsPerBlock: 4, MaxDepth: 2}
	cfg.Ks = []int{5}
	cfg.Allocators = []core.Allocator{core.AllocGRA}
	cfg.CaseTimeout = 10 * time.Second
	cfg.Mutate = flipLastDef
	fail, err := fuzz.RunSeed(context.Background(), 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		t.Fatal("injected fault not detected")
	}
	if fail.Shrunk == "" {
		t.Fatal("no shrunk reproducer")
	}
	if n := len(strings.Split(fail.Shrunk, "\n")); n >= 30 {
		t.Errorf("shrunk reproducer has %d lines, want < 30:\n%s", n, fail.Shrunk)
	}
}

// TestRunCaseUnshrunk: RunCase reports the fault RunSeed finds in the
// same case, without shrinking it.
func TestRunCaseUnshrunk(t *testing.T) {
	cfg := fuzz.Default()
	cfg.Gen = randprog.Config{MaxFuncs: 2, MaxStmtsPerBlock: 4, MaxDepth: 2}
	cfg.Mutate = flipLastDef
	fail, err := fuzz.RunCase(context.Background(), 7, core.AllocGRA, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil || fail.Seed != 7 || fail.Allocator != core.AllocGRA || fail.K != 5 {
		t.Fatalf("failure = %v, want seed 7 gra k=5", fail)
	}
	if fail.Shrunk != "" {
		t.Errorf("RunCase shrank the reproducer:\n%s", fail.Shrunk)
	}
	if fail, err := fuzz.RunCase(context.Background(), 7, core.AllocGRA, 5, fuzz.Default()); fail != nil || err != nil {
		t.Errorf("clean case: failure %v, error %v", fail, err)
	}
}

// FuzzAlloc is the native fuzz entrypoint: go test -fuzz FuzzAlloc
// ./internal/fuzz explores generator seeds beyond the fixed corpus. Go's
// fuzz worker gives up on a call that runs 10 s, so one call checks one
// (allocator, k) case and never shrinks: input n picks the program of
// seed n>>3 and case n&7 of the four allocators at k = 3 and 7. A failure
// prints the rapfuzz command that reruns the case and shrinks it.
func FuzzAlloc(f *testing.F) {
	cfg := fuzz.Default()
	cfg.Ks = []int{3, 7}
	cfg.CaseTimeout = 8 * time.Second
	for n := int64(0); n < 64; n++ {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n int64) {
		c := int(n & 7)
		ac, k := cfg.Allocators[c/len(cfg.Ks)], cfg.Ks[c%len(cfg.Ks)]
		fail, err := fuzz.RunCase(context.Background(), n>>3, ac, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fail != nil {
			t.Fatalf("%v\nshrink it with: rapfuzz -seed-start %d -seeds 1 -ks %d -allocs %s", fail, fail.Seed, fail.K, fail.Allocator)
		}
	})
}
