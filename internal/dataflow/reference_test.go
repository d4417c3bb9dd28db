package dataflow_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/randprog"
	"repro/internal/testutil"
)

// TestLivenessMatchesReference: on randprog functions before allocation
// and after GRA, RAP and IRC at every k the paper evaluates, the block
// sets, the backward walks, the derived per-instruction sets, the cursor
// and the point queries all agree with the per-instruction reference.
// Allocated code reuses a few physical registers across many blocks, and
// IRC's code calls through the ABI's fixed registers.
func TestLivenessMatchesReference(t *testing.T) {
	seeds, stride := int64(8), 4
	if testing.Short() {
		seeds, stride = 3, 16
	}
	funcs := 0
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 5, MaxDepth: 2, Floats: seed%2 == 0})
		type variant struct {
			alloc core.Allocator
			k     int
		}
		variants := []variant{{core.AllocNone, 0}}
		for _, a := range []core.Allocator{core.AllocGRA, core.AllocRAP, core.AllocIRC} {
			for _, k := range []int{3, 5, 7, 9} {
				variants = append(variants, variant{a, k})
			}
		}
		for _, v := range variants {
			p, err := core.Compile(src, core.Config{Allocator: v.alloc, K: v.k})
			if err != nil {
				t.Fatalf("seed %d %s k=%d: %v", seed, v.alloc, v.k, err)
			}
			for _, f := range p.Funcs {
				label := fmt.Sprintf("seed %d %s k=%d %s", seed, v.alloc, v.k, f.Name)
				g := mustBuild(t, f)
				// Every register's IsLiveIn at every instruction is cubic in
				// the function's size: each function asks the point queries
				// at one instruction residue class mod stride, rotating.
				at := func(i int) bool { return i%stride == funcs%stride }
				if err := testutil.SameLiveness(g, dataflow.ComputeLiveness(g), testutil.ReferenceLiveness(g), at, nil); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				funcs++
			}
		}
	}
	t.Logf("%d functions checked", funcs)
}
