package dataflow_test

// The def-use walks against a reference: ReachedUses from a set of
// definitions, pruned by liveness, must equal the union of unpruned
// single-definition walks, and ReachingDefs from a set of uses must
// return exactly the definitions whose reached uses meet that set.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/randprog"
	"repro/internal/testutil"
)

// refReached is the reference forward walk: the uses of r reached from
// the definition at d, by a plain depth-first search over the reference
// instruction successors succs that stops at definitions of r.
func refReached(f *ir.Function, succs [][]int, d int, r ir.Reg) map[int]bool {
	reached := map[int]bool{}
	seen := map[int]bool{}
	stack := append([]int(nil), succs[d]...)
	var buf []ir.Reg
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] {
			continue
		}
		seen[i] = true
		if slices.Contains(f.Instrs[i].Uses(buf[:0]), r) {
			reached[i] = true
		}
		if f.Instrs[i].Def() == r {
			continue
		}
		stack = append(stack, succs[i]...)
	}
	return reached
}

// walkFunctions returns serve-compile-sized randprog functions, before
// allocation and after GRA and RAP at k=3. Allocated code reuses a few
// physical registers with many definitions and uses each.
func walkFunctions(t *testing.T) []*ir.Function {
	t.Helper()
	seeds := int64(24)
	if testing.Short() {
		seeds = 6
	}
	var out []*ir.Function
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 5, MaxDepth: 2, Floats: seed%2 == 0})
		for _, a := range []core.Allocator{core.AllocNone, core.AllocGRA, core.AllocRAP} {
			p, err := core.Compile(src, core.Config{Allocator: a, K: 3})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, a, err)
			}
			out = append(out, p.Funcs...)
		}
	}
	return out
}

// subsets returns the index subsets of an n-element list the walks are
// checked from: each single element, all of them, the even and odd
// positions, and a few random ones.
func subsets(n int, rng *rand.Rand) [][]int {
	var out [][]int
	all, even, odd := []int{}, []int{}, []int{}
	for i := range n {
		out = append(out, []int{i})
		all = append(all, i)
		if i%2 == 0 {
			even = append(even, i)
		} else {
			odd = append(odd, i)
		}
	}
	out = append(out, all, even, odd)
	for range 3 {
		var s []int
		for i := range n {
			if rng.Intn(3) == 0 {
				s = append(s, i)
			}
		}
		out = append(out, s)
	}
	return out
}

func pick(sites, idx []int) []int {
	out := make([]int, len(idx))
	for j, i := range idx {
		out[j] = sites[i]
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func TestWalksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	walks := 0
	for fi, f := range walkFunctions(t) {
		g := mustBuild(t, f)
		lv := dataflow.ComputeLiveness(g)
		du := dataflow.ComputeDefUse(g)
		succs, _, err := testutil.ReferenceEdges(f)
		if err != nil {
			t.Fatal(err)
		}
		for r := ir.Reg(1); int(r) < du.NumRegs; r++ {
			label := fmt.Sprintf("function %d (%s) %s", fi, f.Name, r)
			defs, uses := du.Defs(r), du.Uses(r)
			ref := make([]map[int]bool, len(defs))
			for i, d := range defs {
				ref[i] = refReached(f, succs, d, r)
			}
			for _, idx := range subsets(len(defs), rng) {
				want := map[int]bool{}
				for _, i := range idx {
					for u := range ref[i] {
						want[u] = true
					}
				}
				from := pick(defs, idx)
				if got := du.ReachedUses(from, r, lv); !slices.Equal(got, sortedKeys(want)) {
					t.Fatalf("%s: pruned ReachedUses(%v) = %v, want %v", label, from, got, sortedKeys(want))
				}
				if got := du.ReachedUses(from, r, nil); !slices.Equal(got, sortedKeys(want)) {
					t.Fatalf("%s: ReachedUses(%v) = %v, want %v", label, from, got, sortedKeys(want))
				}
				walks += 2
			}
			for _, idx := range subsets(len(uses), rng) {
				targets := pick(uses, idx)
				var want []int
				for i, d := range defs {
					if slices.ContainsFunc(targets, func(u int) bool { return ref[i][u] }) {
						want = append(want, d)
					}
				}
				if got := du.ReachingDefs(targets, r); !slices.Equal(got, want) {
					t.Fatalf("%s: ReachingDefs(%v) = %v, want %v", label, targets, got, want)
				}
				walks++
			}
		}
	}
	t.Logf("%d walks checked", walks)
}
