package rap_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
	"repro/internal/regalloc/rap"
	"repro/internal/testutil"
)

// checkAnalysis compares the analysis a reanalysis recomputed in place
// with a fresh one of the same function. Walking every definition's
// reached uses is quadratic in the function's size, so each call walks
// those of one register residue class mod 16, rotating with call.
func checkAnalysis(st rap.Analysis, call int) error {
	g, err := cfg.Build(st.F)
	if err != nil {
		return err
	}
	if err := testutil.SameCFG(st.G, g); err != nil {
		return fmt.Errorf("cfg: %w", err)
	}
	if err := testutil.SameLiveness(st.LV, dataflow.ComputeLiveness(g)); err != nil {
		return fmt.Errorf("liveness: %w", err)
	}
	reach := func(r ir.Reg) bool { return int(r)%16 == call%16 }
	if err := testutil.SameDefUse(st.DU, dataflow.ComputeDefUse(g), reach); err != nil {
		return fmt.Errorf("def-use: %w", err)
	}
	if want := st.F.RegionSpans(); !slices.Equal(st.Spans, want) {
		return fmt.Errorf("spans = %v, want %v", st.Spans, want)
	}
	if want := st.F.RefCounts(nil); !slices.Equal(st.TotalRefs, want) {
		return fmt.Errorf("reference counts = %v, want %v", st.TotalRefs, want)
	}
	want := map[string][]int{}
	for i, in := range st.F.Instrs {
		switch in.Op {
		case ir.OpJump:
			want[in.Label] = append(want[in.Label], i)
		case ir.OpCBr:
			want[in.Label] = append(want[in.Label], i)
			want[in.Label2] = append(want[in.Label2], i)
		}
	}
	if !maps.EqualFunc(st.Jumpers, want, slices.Equal) {
		return fmt.Errorf("label jumpers = %v, want %v", st.Jumpers, want)
	}
	return nil
}

// TestReanalyzeMatchesFresh: after every reanalysis of every spill round
// (and of spill motion), the analysis RAP recomputed into the previous
// round's storage equals a fresh analysis of the edited function. It
// runs over the Table 1 suite and 50 randprog programs (the
// serve-compile benchmark's size) at k=3.
func TestReanalyzeMatchesFresh(t *testing.T) {
	type input struct {
		name string
		src  string
	}
	var inputs []input
	for _, p := range bench.Programs() {
		inputs = append(inputs, input{p.Name, p.Source})
	}
	for seed := int64(1); seed <= 50; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("randprog-%d", seed), randprog.Generate(seed, randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 5, MaxDepth: 2, Floats: true})})
	}
	var fn string
	calls, failures := 0, 0
	defer rap.SetReanalyzeCheck(func(st rap.Analysis) {
		calls++
		if err := checkAnalysis(st, calls); err != nil && failures < 5 {
			failures++
			t.Errorf("%s: reanalysis %d: %v", fn, calls, err)
		}
	})()
	funcs := 0
	for _, in := range inputs {
		p, err := testutil.Compile(in.src, lower.Options{})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for _, f := range p.Funcs {
			fn = in.name + "/" + f.Name
			funcs++
			if err := rap.Allocate(f, 3, rap.Options{}); err != nil {
				t.Fatalf("%s: %v", fn, err)
			}
		}
	}
	// Every function is analysed once up front; the rest are the
	// recomputations under test.
	if calls <= funcs {
		t.Fatalf("%d reanalyses over %d functions: no spill round recomputed anything", calls, funcs)
	}
	t.Logf("%d reanalyses over %d functions", calls, funcs)
}
