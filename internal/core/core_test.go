package core_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/randprog"
)

const sample = `
int acc = 0;
int step(int x) {
	acc = acc + x;
	return acc;
}
int main() {
	int i;
	for (i = 1; i <= 8; i = i + 1) {
		step(i * i % 11);
	}
	print(acc);
	return 0;
}`

func TestCompileAllocators(t *testing.T) {
	for _, alloc := range []core.Allocator{core.AllocNone, core.AllocGRA, core.AllocRAP} {
		p, err := core.Compile(sample, core.Config{Allocator: alloc, K: 4})
		if err != nil {
			t.Fatalf("%s: %v", alloc, err)
		}
		res, err := core.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", alloc, err)
		}
		if len(res.Output) != 1 || res.Output[0] != "39" {
			t.Errorf("%s: output = %v", alloc, res.Output)
		}
	}
	if _, err := core.Compile(sample, core.Config{Allocator: "bogus", K: 4}); err == nil {
		t.Error("unknown allocator accepted")
	}
	if _, err := core.Compile("int main() {", core.Config{}); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestCompareMeasurements(t *testing.T) {
	ms, err := core.Compare(sample, []int{3, 6}, core.CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Two routines (main, step) at two register set sizes.
	if len(ms) != 4 {
		t.Fatalf("got %d measurements, want 4", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		seen[m.Func] = true
		if m.GRA.Cycles <= 0 || m.RAP.Cycles <= 0 {
			t.Errorf("%s k=%d: zero cycle counts", m.Func, m.K)
		}
		// Percentage identities: tot ≈ ld + st + copies portion.
		total := m.PctLoads() + m.PctStores() + m.PctCopies()
		rest := m.PctTotal() - total
		// The remainder is due to non-load/store/copy instruction count
		// changes (spill address arithmetic is zero here, so the split
		// must add up).
		if math.Abs(rest) > 1e-9 {
			t.Errorf("%s k=%d: tot%%=%f but ld+st+cp=%f", m.Func, m.K, m.PctTotal(), total)
		}
	}
	if !seen["main"] || !seen["step"] {
		t.Errorf("missing routines: %v", seen)
	}
}

func TestCompareRestrictsFuncs(t *testing.T) {
	ms, err := core.Compare(sample, []int{4}, core.CompareConfig{Funcs: []string{"step"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Func != "step" {
		t.Errorf("got %v", ms)
	}
}

func TestMeasurementAccessors(t *testing.T) {
	m := core.Measurement{
		Func: "f", K: 3,
	}
	m.GRA.Cycles = 200
	m.GRA.Loads = 40
	m.GRA.Stores = 20
	m.GRA.Copies = 10
	m.RAP.Cycles = 180
	m.RAP.Loads = 30
	m.RAP.Stores = 20
	m.RAP.Copies = 0
	m.GRASpillOps = 2
	if got := m.PctTotal(); math.Abs(got-10.0) > 1e-9 {
		t.Errorf("PctTotal = %v", got)
	}
	if got := m.PctLoads(); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("PctLoads = %v", got)
	}
	if got := m.PctStores(); got != 0 {
		t.Errorf("PctStores = %v", got)
	}
	if got := m.PctCopies(); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("PctCopies = %v", got)
	}
	if !m.HasSpillCode() {
		t.Error("HasSpillCode should be true")
	}
	var zero core.Measurement
	if zero.PctTotal() != 0 || zero.HasSpillCode() {
		t.Error("zero measurement accessors wrong")
	}
}

func TestParseKs(t *testing.T) {
	ks, err := core.ParseKs("3, 5,7")
	if err != nil || len(ks) != 3 || ks[0] != 3 || ks[2] != 7 {
		t.Errorf("ParseKs = %v, %v", ks, err)
	}
	for _, bad := range []string{"", "a", "3,,5", "0", "-2"} {
		if _, err := core.ParseKs(bad); err == nil {
			t.Errorf("ParseKs(%q) should fail", bad)
		}
	}
}

func TestNaiveAllocatorInPipeline(t *testing.T) {
	p, err := core.Compile(sample, core.Config{Allocator: core.AllocNaive, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != "39" {
		t.Errorf("naive output = %v", res.Output)
	}
	// Everything travels through memory: loads+stores dominate cycles.
	if res.Total.Loads+res.Total.Stores < res.Total.Cycles/3 {
		t.Errorf("naive should be memory-bound: %+v", res.Total)
	}
}

// TestAllocateCloneMatchesCompile: a caller that lowers a source once
// and allocates a Clone of the result gets exactly the code Compile
// gives, and the program it cloned keeps printing what a fresh Frontend
// of the source prints, so it can serve as the verifier's original.
func TestAllocateCloneMatchesCompile(t *testing.T) {
	var srcs []string
	for _, p := range bench.Programs() {
		srcs = append(srcs, p.Source)
	}
	for seed := int64(0); seed < 3; seed++ {
		srcs = append(srcs, randprog.Generate(seed, randprog.DefaultConfig()))
	}
	ks := []int{3, 4, 5, 6, 7, 8, 9}
	if testing.Short() {
		ks = []int{3, 6, 9}
	}
	allocs := []core.Allocator{core.AllocGRA, core.AllocRAP, core.AllocIRC, core.AllocNaive}
	frontend := func(src string) string {
		t.Helper()
		p, err := core.Frontend(src, lower.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.String()
	}
	for i, src := range srcs {
		orig, err := core.Frontend(src, lower.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ac := range allocs {
			for _, k := range ks {
				cfg := core.Config{Allocator: ac, K: k}
				want, err := core.Compile(src, cfg)
				if err != nil {
					t.Fatalf("source %d %s k=%d: %v", i, ac, k, err)
				}
				got := orig.Clone()
				if err := core.Allocate(got, cfg); err != nil {
					t.Fatalf("source %d %s k=%d: Allocate: %v", i, ac, k, err)
				}
				if got.String() != want.String() {
					t.Errorf("source %d %s k=%d: Allocate on a clone differs from Compile", i, ac, k)
				}
			}
		}
		if orig.String() != frontend(src) {
			t.Errorf("source %d: allocating clones changed the program they were cloned from", i)
		}
	}
	if err := core.Allocate(nil, core.Config{Allocator: "bogus", K: 5}); err == nil {
		t.Error("Allocate accepted an unknown allocator")
	}
}
