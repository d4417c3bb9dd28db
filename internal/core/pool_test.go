package core_test

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
	"repro/internal/regalloc/chaitin"
	"repro/internal/regalloc/irc"
	"repro/internal/regalloc/rap"
)

// TestPooledStateMatchesFresh: GRA, RAP and IRC take their per-function
// state from a sync.Pool, and a state reused from another function must
// allocate exactly as a new one does. Every function of the Table 1
// suite and of randprog programs made with the serve-compile
// benchmark's generator settings is allocated at k = 3, 5 and 9 twice:
// once in one pass from the largest function down, so each state
// arrives filled by a larger function, and once with two garbage
// collections before each function, which empty every sync.Pool so each
// state is new. The printed allocations must be identical.
func TestPooledStateMatchesFresh(t *testing.T) {
	type fn struct {
		name string
		f    *ir.Function
	}
	var fns []fn
	add := func(name, src string) {
		p, err := core.Frontend(src, lower.Options{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range p.Funcs {
			fns = append(fns, fn{name + "." + f.Name, f})
		}
	}
	for _, prog := range bench.Programs() {
		add(prog.Name, prog.Source)
	}
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := range seeds {
		add(fmt.Sprintf("seed%d", seed), randprog.Generate(int64(seed), randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 5, MaxDepth: 2, Floats: true}))
	}
	largestFirst := slices.Clone(fns)
	slices.SortStableFunc(largestFirst, func(a, b fn) int { return cmp.Compare(len(b.f.Instrs), len(a.f.Instrs)) })

	allocators := []struct {
		name     string
		allocate func(f *ir.Function, k int) error
	}{
		{"gra", func(f *ir.Function, k int) error { return chaitin.Allocate(f, k, chaitin.Options{}) }},
		{"rap", func(f *ir.Function, k int) error { return rap.Allocate(f, k, rap.Options{}) }},
		{"irc", func(f *ir.Function, k int) error { return irc.Allocate(f, k, irc.Options{}) }},
	}
	for _, al := range allocators {
		for _, k := range []int{3, 5, 9} {
			run := func(order []fn, fresh bool) map[string]string {
				out := map[string]string{}
				for _, x := range order {
					f := x.f.Clone()
					if fresh {
						runtime.GC()
						runtime.GC()
					}
					err := al.allocate(f, k)
					out[x.name] = fmt.Sprintf("err=%v\n%s", err, f)
				}
				return out
			}
			reused := run(largestFirst, false)
			fresh := run(fns, true)
			failures := 0
			for _, x := range fns {
				if reused[x.name] != fresh[x.name] && failures < 3 {
					failures++
					t.Errorf("%s k=%d %s: reused state allocates\n%s\nfresh state\n%s", al.name, k, x.name, reused[x.name], fresh[x.name])
				}
			}
		}
	}
}
