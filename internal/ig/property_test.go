package ig_test

// Equivalence of the dense-arena graph against the retained pointer-map
// reference (reference_test.go) over randprog-generated functions: both
// implementations are driven with the identical node/edge/cost/global
// sequence and must produce byte-identical String() renderings, the same
// colour for every register, and the same spill set — at every k the
// paper evaluates and under both global rules.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
	"repro/internal/testutil"
)

// graphOps is the build recipe extracted from one function: the inputs
// both implementations consume.
type graphOps struct {
	regs   []ir.Reg    // Ensure order (ascending vreg)
	edges  [][2]ir.Reg // AddEdge order (instruction order, then liveness order)
	refs   map[ir.Reg]int
	global func(ir.Reg) bool
}

// extractOps mirrors regalloc.BuildInterference's edge rule (def vs
// live-out, copy source exempt) without importing regalloc, which would
// hide build-rule changes from this test's oracle.
func extractOps(f *ir.Function) (*graphOps, error) {
	g, err := cfg.Build(f)
	if err != nil {
		return nil, err
	}
	lv := testutil.ReferenceLiveness(g)
	ops := &graphOps{
		regs:   f.VRegs(),
		refs:   map[ir.Reg]int{},
		global: func(r ir.Reg) bool { return r%3 == 0 },
	}
	var buf []ir.Reg
	for i, in := range f.Instrs {
		buf = in.Uses(buf[:0])
		for _, u := range buf {
			ops.refs[u]++
		}
		d := in.Def()
		if d == ir.None {
			continue
		}
		ops.refs[d]++
		copySrc := ir.None
		if in.IsCopy() {
			copySrc = in.Src1
		}
		lv.LiveOut[i].ForEach(func(ri int) {
			r := ir.Reg(ri)
			if r == d || r == copySrc {
				return
			}
			ops.edges = append(ops.edges, [2]ir.Reg{d, r})
		})
	}
	return ops, nil
}

func buildDense(ops *graphOps) *ig.Graph {
	g := ig.New()
	for _, r := range ops.regs {
		g.Ensure(r)
	}
	for _, e := range ops.edges {
		g.AddEdge(e[0], e[1])
	}
	for _, n := range g.Nodes() {
		d := n.Degree()
		if d == 0 {
			d = 1
		}
		n.SpillCost = float64(ops.refs[n.Key()]) / float64(d)
		n.Global = ops.global(n.Key())
	}
	return g
}

func buildRef(ops *graphOps) *refGraph {
	g := newRefGraph()
	for _, r := range ops.regs {
		g.Ensure(r)
	}
	for _, e := range ops.edges {
		g.AddEdge(e[0], e[1])
	}
	for _, n := range g.Nodes() {
		d := n.Degree()
		if d == 0 {
			d = 1
		}
		n.SpillCost = float64(ops.refs[n.Key()]) / float64(d)
		n.Global = ops.global(n.Key())
	}
	return g
}

func spillKeys(dense []*ig.Node) []string {
	out := make([]string, len(dense))
	for i, n := range dense {
		out[i] = n.Key().String()
	}
	return out
}

func refSpillKeys(ref []*refNode) []string {
	out := make([]string, len(ref))
	for i, n := range ref {
		out[i] = n.Key().String()
	}
	return out
}

func TestDenseGraphMatchesReference(t *testing.T) {
	target := 200
	if testing.Short() {
		target = 40
	}
	funcs := 0
	for seed := int64(0); funcs < target; seed++ {
		src := randprog.Generate(seed, randprog.Config{
			MaxFuncs: 3, MaxStmtsPerBlock: 5, MaxDepth: 3, Floats: seed%2 == 0,
		})
		p, err := testutil.Compile(src, lower.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, fn := range p.Funcs {
			funcs++
			ops, err := extractOps(fn)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, fn.Name, err)
			}
			dense, ref := buildDense(ops), buildRef(ops)
			if got, want := dense.String(), ref.String(); got != want {
				t.Fatalf("seed %d %s: graphs differ pre-colouring:\ndense:\n%s\nref:\n%s", seed, fn.Name, got, want)
			}
			// Clone must preserve everything the rendering shows.
			if got := dense.Clone().String(); got != dense.String() {
				t.Fatalf("seed %d %s: Clone changed rendering", seed, fn.Name)
			}
			for _, k := range []int{3, 5, 7, 9} {
				for _, gd := range []bool{false, true} {
					res := dense.Color(k, gd)
					refSpilled := ref.Color(k, gd)
					label := fmt.Sprintf("seed %d %s k=%d globalsDistinct=%v", seed, fn.Name, k, gd)
					ds, rs := spillKeys(res.Spilled), refSpillKeys(refSpilled)
					if fmt.Sprint(ds) != fmt.Sprint(rs) {
						t.Fatalf("%s: spill sets differ: dense %v ref %v", label, ds, rs)
					}
					if got, want := dense.String(), ref.String(); got != want {
						t.Fatalf("%s: coloured graphs differ:\ndense:\n%s\nref:\n%s", label, got, want)
					}
					for _, r := range ops.regs {
						if dc, rc := dense.NodeOf(r).Color, ref.byReg[r].Color; dc != rc {
							t.Fatalf("%s: %s coloured %d, reference %d", label, r, dc, rc)
						}
					}
				}
			}
		}
	}
	t.Logf("compared %d random functions", funcs)
}

// TestDenseCombineMatchesReference drives Combine after colouring and
// checks the merged membership grouping matches the reference's
// colour classes.
func TestDenseCombineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		src := randprog.Generate(seed, randprog.Config{
			MaxFuncs: 2, MaxStmtsPerBlock: 4, MaxDepth: 2,
		})
		p, err := testutil.Compile(src, lower.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, fn := range p.Funcs {
			ops, err := extractOps(fn)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, fn.Name, err)
			}
			dense, ref := buildDense(ops), buildRef(ops)
			dense.Color(5, false)
			ref.Color(5, false)
			// Reference colour classes, rendered as "color:r1,r2,...".
			classes := map[int][]string{}
			for _, n := range ref.Nodes() {
				if n.Color != 0 {
					classes[n.Color] = append(classes[n.Color], n.Key().String())
				}
			}
			var want []string
			for c, regs := range classes {
				sort.Strings(regs)
				want = append(want, fmt.Sprintf("%d:%v", c, regs))
			}
			sort.Strings(want)
			combined := dense.Combine()
			var got []string
			for _, n := range combined.Nodes() {
				keys := []string{}
				for _, r := range n.Regs {
					if ref.byReg[r] != nil && ref.byReg[r].Key() == r {
						keys = append(keys, r.String())
					}
				}
				sort.Strings(keys)
				got = append(got, fmt.Sprintf("%d:%v", n.Color, keys))
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d %s: combine classes differ:\ndense %v\nref   %v", seed, fn.Name, got, want)
			}
		}
	}
}
