package pdg_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/pdg"
	"repro/internal/randprog"
	"repro/internal/testutil"
)

// figure1Src is the paper's Figure 1 program:
//
//	1: i := 1
//	2: while (i < 10) {
//	3:   j = i + 1
//	4:   if (j == 7)
//	5:     ... (then)
//	6:     ... (else)
//	7:   i = i + 1
//	   }
//	8: ...
const figure1Src = `
int main() {
	int i = 1;
	int j = 0;
	int t = 0;
	while (i < 10) {
		j = i + 1;
		if (j == 7) {
			t = t + j;
		} else {
			t = t - 1;
		}
		i = i + 1;
	}
	print(t);
	return 0;
}`

func buildPDG(t *testing.T, src string) *pdg.Graph {
	t.Helper()
	p, err := testutil.Compile(src, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := pdg.Build(p.Func("main"))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFigure1PDG verifies the structure the paper's Figure 1 shows: a
// region for the entry conditions, a region for "entering the loop or
// looping back" (conditioned on entry OR the loop predicate), a loop-body
// region under the loop predicate's true edge, and then/else regions under
// the if predicate.
func TestFigure1PDG(t *testing.T) {
	g := buildPDG(t, figure1Src)

	var predicates []int
	regions := map[string][]int{} // cond-set description -> region ids
	for _, n := range g.Nodes {
		switch n.Kind {
		case pdg.NodePredicate:
			predicates = append(predicates, n.ID)
		case pdg.NodeRegion:
			var parts []string
			for _, c := range n.Conds {
				parts = append(parts, g.Nodes[c.Pred].Kind.String()+":"+c.Label)
			}
			regions[strings.Join(parts, ",")] = append(regions[strings.Join(parts, ",")], n.ID)
		}
	}
	// Two predicates: the while condition and the if condition.
	if len(predicates) != 2 {
		t.Fatalf("expected 2 predicate nodes, got %d\n%s", len(predicates), g)
	}
	// R1: entry-only region.
	if len(regions["entry:"]) == 0 {
		t.Errorf("missing entry region (R1)\n%s", g)
	}
	// R2: the loop-header region is control dependent on both the entry
	// and the loop predicate's true edge ("entering the loop or looping
	// back", §2.2).
	if len(regions["entry:,predicate:T"]) == 0 {
		t.Errorf("missing loop-header region (R2) with conds {entry, P1:T}\n%s", g)
	}
	// R3/R4/R5: regions under a single predicate outcome. The loop body
	// and the then branch are both "predicate:T" sets (of different
	// predicates); else is predicate:F.
	if len(regions["predicate:T"]) < 2 {
		t.Errorf("expected two predicate:T regions (loop body R3, then R4), got %v\n%s",
			regions["predicate:T"], g)
	}
	if len(regions["predicate:F"]) != 1 {
		t.Errorf("expected one predicate:F region (else R5), got %v\n%s", regions["predicate:F"], g)
	}
	// Data dependence: the increment i=i+1 feeds the while condition.
	hasDataEdge := false
	for _, e := range g.Edges {
		if e.Kind == pdg.EdgeData {
			hasDataEdge = true
		}
	}
	if !hasDataEdge {
		t.Errorf("expected data dependence edges\n%s", g)
	}
}

// TestEveryBlockHasRegion: each reachable basic block hangs off exactly
// one region node.
func TestEveryBlockHasRegion(t *testing.T) {
	g := buildPDG(t, figure1Src)
	for _, n := range g.Nodes {
		if n.Kind != pdg.NodeStatement && n.Kind != pdg.NodePredicate {
			continue
		}
		if r := g.RegionOfBlock(n.Block); r < 0 {
			t.Errorf("block %d has no region", n.Block)
		}
	}
}

// TestPredicatesHaveAtMostTwoOutcomes: after region insertion, each
// predicate node has at most one true and one false outgoing control edge
// (§2.2).
func TestPredicatesHaveAtMostTwoOutcomes(t *testing.T) {
	for _, src := range []string{figure1Src, `
int main() {
	int a = 0;
	int i;
	for (i = 0; i < 5; i = i + 1) {
		if (i % 2 == 0) { a = a + i; }
		while (a > 3) { a = a - 2; }
	}
	print(a);
	return 0;
}`} {
		g := buildPDG(t, src)
		for _, n := range g.Nodes {
			if n.Kind != pdg.NodePredicate && n.Kind != pdg.NodeEntry {
				continue
			}
			count := map[string]int{}
			for _, e := range g.Edges {
				if e.Kind == pdg.EdgeControl && e.From == n.ID {
					count[e.Label]++
				}
			}
			for label, c := range count {
				if c > 1 {
					t.Errorf("node %d (%s) has %d outgoing %q control edges\n%s",
						n.ID, n.Kind, c, label, g)
				}
			}
		}
	}
}

// TestCrossCheckSyntacticRegions: on structured programs, blocks that the
// lowerer placed in the same innermost region must have identical
// control-dependence sets in the semantic PDG.
func TestCrossCheckSyntacticRegions(t *testing.T) {
	srcs := []string{figure1Src, `
int f(int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i = i + 1) {
		if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
	}
	return s;
}
int main() { print(f(10)); return 0; }`,
	}
	for _, src := range srcs {
		p, err := testutil.Compile(src, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range p.Funcs {
			g, err := pdg.Build(f)
			if err != nil {
				t.Fatal(err)
			}
			// Group instructions by (lowerer region, basic block): all
			// instructions of one region in one block share a CD set by
			// construction; check across blocks of the same region.
			condsOfRegion := map[int]string{}
			for i, in := range f.Instrs {
				if in.Op == ir.OpLabel {
					continue // labels can sit on block boundaries
				}
				b := g.CFG.BlockOf[i]
				node := g.Nodes[g.NodeOfBlock(b)]
				key := ""
				for _, c := range node.Conds {
					key += g.Nodes[c.Pred].Kind.String() + c.Label + ";"
				}
				if prev, ok := condsOfRegion[in.Region]; ok {
					if prev != key {
						// Loop regions legitimately span the header
						// (entry ∪ backedge) and the latch (body
						// conditions), so only flag statement regions.
						if r := f.RegionByID(in.Region); r != nil && r.Kind == ir.RegionStmt {
							t.Errorf("%s: stmt region %d has blocks with different CD sets: %q vs %q",
								f.Name, in.Region, prev, key)
						}
					}
				} else {
					condsOfRegion[in.Region] = key
				}
			}
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildPDG(t, figure1Src)
	dot := g.DOT()
	for _, want := range []string{"digraph", "diamond", "circle", "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// TestCrossCheckRandomPrograms extends the syntactic/semantic cross-check
// to randomly generated structured programs: *branch-free* statement
// regions must have uniform control-dependence sets (statements that
// contain short-circuit operators carry genuine internal control
// dependence, in pdgcc as here), every reachable block must hang off
// exactly one region, and predicates keep at most one T and one F
// outgoing edge.
func TestCrossCheckRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		src := randprog.Generate(seed, randprog.Config{
			MaxFuncs: 1, MaxStmtsPerBlock: 4, MaxDepth: 3, Floats: false,
		})
		p, err := testutil.Compile(src, lower.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, f := range p.Funcs {
			g, err := pdg.Build(f)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, f.Name, err)
			}
			// Statement regions owning any branch or label have internal
			// control structure; skip those.
			branchy := map[int]bool{}
			for _, in := range f.Instrs {
				if in.IsBranch() || in.Op == ir.OpLabel {
					branchy[in.Region] = true
				}
			}
			condsOfRegion := map[int]string{}
			for i, in := range f.Instrs {
				if in.Op == ir.OpLabel || branchy[in.Region] {
					continue
				}
				b := g.CFG.BlockOf[i]
				node := g.Nodes[g.NodeOfBlock(b)]
				key := ""
				for _, c := range node.Conds {
					key += g.Nodes[c.Pred].Kind.String() + c.Label + ";"
				}
				if prev, ok := condsOfRegion[in.Region]; ok && prev != key {
					if r := f.RegionByID(in.Region); r != nil && r.Kind == ir.RegionStmt {
						t.Errorf("seed %d %s: stmt region %d has CD sets %q and %q",
							seed, f.Name, in.Region, prev, key)
					}
				} else {
					condsOfRegion[in.Region] = key
				}
			}
			for _, n := range g.Nodes {
				if n.Kind != pdg.NodePredicate && n.Kind != pdg.NodeEntry {
					continue
				}
				count := map[string]int{}
				for _, e := range g.Edges {
					if e.Kind == pdg.EdgeControl && e.From == n.ID {
						count[e.Label]++
					}
				}
				for label, c := range count {
					if c > 1 {
						t.Errorf("seed %d %s: node %d has %d outgoing %q edges",
							seed, f.Name, n.ID, c, label)
					}
				}
			}
		}
	}
}

// TestBuildStableAcrossReparse: compiling the same source twice and
// building each function's PDG yields the same nodes and edges, in the
// same order, over a corpus of random programs.
func TestBuildStableAcrossReparse(t *testing.T) {
	build := func(src string) map[string]*pdg.Graph {
		t.Helper()
		p, err := testutil.Compile(src, lower.Options{})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		out := map[string]*pdg.Graph{}
		for _, f := range p.Funcs {
			g, err := pdg.Build(f)
			if err != nil {
				t.Fatalf("pdg.Build(%s): %v", f.Name, err)
			}
			out[f.Name] = g
		}
		return out
	}
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		a, b := build(src), build(src)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("seed %d: %d then %d functions", seed, len(a), len(b))
		}
		for name, ga := range a {
			gb := b[name]
			if gb == nil {
				t.Fatalf("seed %d: %s missing from the second build", seed, name)
			}
			if !reflect.DeepEqual(ga.Nodes, gb.Nodes) {
				t.Errorf("seed %d: %s nodes differ across re-parses", seed, name)
			}
			if !reflect.DeepEqual(ga.Edges, gb.Edges) {
				t.Errorf("seed %d: %s edges differ across re-parses", seed, name)
			}
		}
	}
}
