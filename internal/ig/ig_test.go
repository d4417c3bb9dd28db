package ig_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ig"
	"repro/internal/ir"
)

func buildGraph(edges [][2]int, n int) *ig.Graph {
	g := ig.New()
	for r := 1; r <= n; r++ {
		g.Ensure(ir.Reg(r))
	}
	for _, e := range edges {
		g.AddEdge(ir.Reg(e[0]), ir.Reg(e[1]))
	}
	return g
}

func TestBasicOps(t *testing.T) {
	g := buildGraph([][2]int{{1, 2}, {2, 3}}, 4)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if !g.Interferes(1, 2) || !g.Interferes(2, 1) {
		t.Error("edge 1-2 missing")
	}
	if g.Interferes(1, 3) {
		t.Error("phantom edge 1-3")
	}
	if d := g.NodeOf(2).Degree(); d != 2 {
		t.Errorf("degree(2) = %d, want 2", d)
	}
	if g.NodeOf(4).Degree() != 0 {
		t.Error("isolated node should have degree 0")
	}
}

func TestMerge(t *testing.T) {
	g := buildGraph([][2]int{{1, 2}, {3, 4}}, 4)
	g.Merge(g.NodeOf(1), g.NodeOf(3))
	n := g.NodeOf(1)
	if n != g.NodeOf(3) {
		t.Fatal("1 and 3 should share a node after merge")
	}
	if !n.Has(1) || !n.Has(3) {
		t.Error("merged node lost members")
	}
	// Adjacency is unioned.
	if !g.Interferes(1, 2) || !g.Interferes(3, 2) || !g.Interferes(1, 4) {
		t.Error("merged adjacency wrong")
	}
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
}

func TestRenameReg(t *testing.T) {
	g := buildGraph([][2]int{{1, 2}}, 2)
	g.RenameReg(1, 9)
	if g.NodeOf(1) != nil {
		t.Error("old name still present")
	}
	if g.NodeOf(9) == nil || !g.Interferes(9, 2) {
		t.Error("new name missing or lost edges")
	}
}

func TestColorSimpleChain(t *testing.T) {
	// A path 1-2-3-4 is 2-colourable.
	g := buildGraph([][2]int{{1, 2}, {2, 3}, {3, 4}}, 4)
	res := g.Color(2, false)
	if len(res.Spilled) != 0 {
		t.Fatalf("path should 2-colour, spilled %v", res.Spilled)
	}
	if err := g.CheckColoring(2, false); err != nil {
		t.Error(err)
	}
}

func TestColorCliqueNeedsSpill(t *testing.T) {
	// K4 cannot be 3-coloured.
	var edges [][2]int
	for i := 1; i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	g := buildGraph(edges, 4)
	res := g.Color(3, false)
	if len(res.Spilled) != 1 {
		t.Fatalf("K4 with 3 colours should spill exactly one node, got %d", len(res.Spilled))
	}
}

func TestBriggsOptimism(t *testing.T) {
	// The "diamond" case Briggs et al. use: a 4-cycle 1-2-3-4-1 has every
	// node at degree 2, so with k=2 Chaitin would spill immediately, but
	// it is 2-colourable; optimistic colouring must find the colouring.
	g := buildGraph([][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 1}}, 4)
	res := g.Color(2, false)
	if len(res.Spilled) != 0 {
		t.Fatalf("optimistic colouring should 2-colour the 4-cycle, spilled %v", res.Spilled)
	}
	if err := g.CheckColoring(2, false); err != nil {
		t.Error(err)
	}
}

func TestGlobalsDistinct(t *testing.T) {
	// Two non-interfering globals must still get different colours when
	// globalsDistinct is set (§3.1.3).
	g := buildGraph(nil, 2)
	g.NodeOf(1).Global = true
	g.NodeOf(2).Global = true
	res := g.Color(4, true)
	if len(res.Spilled) != 0 {
		t.Fatal("plenty of colours available")
	}
	if g.NodeOf(1).Color == g.NodeOf(2).Color {
		t.Error("global nodes share a colour")
	}
	// A local may share with a global.
	g2 := buildGraph(nil, 2)
	g2.NodeOf(1).Global = true
	res2 := g2.Color(4, true)
	if len(res2.Spilled) != 0 {
		t.Fatal("colouring failed")
	}
	if g2.NodeOf(1).Color != g2.NodeOf(2).Color {
		t.Error("first-fit should give the non-interfering local the same colour as the global")
	}
}

func TestCombine(t *testing.T) {
	// Colour a path with 2 colours, then combine: the result must have 2
	// nodes whose members partition the registers by colour.
	g := buildGraph([][2]int{{1, 2}, {2, 3}, {3, 4}}, 4)
	if res := g.Color(2, false); len(res.Spilled) != 0 {
		t.Fatal("colouring failed")
	}
	c := g.Combine()
	if c.NumNodes() != 2 {
		t.Fatalf("combined graph has %d nodes, want 2", c.NumNodes())
	}
	// 1,3 share a colour and 2,4 share the other (path parity).
	if c.NodeOf(1) != c.NodeOf(3) || c.NodeOf(2) != c.NodeOf(4) {
		t.Errorf("combine grouped wrongly:\n%s", c)
	}
	// Combined nodes interfere (members did).
	if !c.Interferes(1, 2) {
		t.Error("combined nodes should interfere")
	}
}

func TestCombineDropsSpilled(t *testing.T) {
	var edges [][2]int
	for i := 1; i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	g := buildGraph(edges, 4)
	res := g.Color(3, false)
	if len(res.Spilled) != 1 {
		t.Fatal("expected one spill")
	}
	c := g.Combine()
	if c.NumNodes() != 3 {
		t.Errorf("combined graph has %d nodes, want 3 (spilled node dropped)", c.NumNodes())
	}
}

// TestColoringAlwaysProper (property): for random graphs and k, every
// node that received a colour satisfies the proper-colouring invariants,
// and the colour count never exceeds k.
func TestColoringAlwaysProper(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		k := 2 + rng.Intn(6)
		g := ig.New()
		for r := 1; r <= n; r++ {
			node := g.Ensure(ir.Reg(r))
			node.SpillCost = rng.Float64() * 10
			node.Global = rng.Intn(3) == 0
		}
		var edges [][2]ir.Reg
		for i := 1; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]ir.Reg{ir.Reg(i), ir.Reg(j)})
					g.AddEdge(ir.Reg(i), ir.Reg(j))
				}
			}
		}
		globalsDistinct := rng.Intn(2) == 0
		res := g.Color(k, globalsDistinct)
		// The coloured nodes, with the edges among them, must check out.
		spilled := map[ir.Reg]bool{}
		for _, s := range res.Spilled {
			spilled[s.Key()] = true
		}
		colored := ig.New()
		for _, node := range g.Nodes() {
			if !spilled[node.Key()] {
				c := colored.Ensure(node.Key())
				c.Color, c.Global = node.Color, node.Global
			}
		}
		for _, e := range edges {
			if !spilled[e[0]] && !spilled[e[1]] {
				colored.AddEdge(e[0], e[1])
			}
		}
		return colored.CheckColoring(k, globalsDistinct) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCombineBoundedByK (property): a coloured graph combines into at
// most k nodes, and membership is a partition.
func TestCombineBoundedByK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		k := 3 + rng.Intn(4)
		g := ig.New()
		for r := 1; r <= n; r++ {
			g.Ensure(ir.Reg(r)).SpillCost = 1
		}
		for i := 1; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Intn(4) == 0 {
					g.AddEdge(ir.Reg(i), ir.Reg(j))
				}
			}
		}
		res := g.Color(k, false)
		c := g.Combine()
		if c.NumNodes() > k {
			return false
		}
		// Every non-spilled register appears in exactly one node.
		spilled := map[ir.Reg]bool{}
		for _, s := range res.Spilled {
			for _, r := range s.Regs {
				spilled[r] = true
			}
		}
		count := 0
		for _, node := range c.Nodes() {
			count += len(node.Regs)
		}
		return count == n-len(spilled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMergePreservesMembership (property): merging nodes never loses
// registers and unions adjacency.
func TestMergePreservesMembership(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := ig.New()
		for r := 1; r <= n; r++ {
			g.Ensure(ir.Reg(r))
		}
		for i := 1; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(ir.Reg(i), ir.Reg(j))
				}
			}
		}
		for m := 0; m < 4; m++ {
			a := ir.Reg(1 + rng.Intn(n))
			b := ir.Reg(1 + rng.Intn(n))
			na, nb := g.NodeOf(a), g.NodeOf(b)
			if na == nb || na.Adjacent(nb) {
				continue
			}
			g.Merge(na, nb)
		}
		seen := map[ir.Reg]bool{}
		for _, node := range g.Nodes() {
			for _, r := range node.Regs {
				if seen[r] {
					return false // register in two nodes
				}
				seen[r] = true
				if g.NodeOf(r) != node {
					return false // index out of sync
				}
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
