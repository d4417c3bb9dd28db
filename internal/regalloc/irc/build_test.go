package irc

import (
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
	"repro/internal/regalloc"
	"repro/internal/testutil"
)

// referenceAdjacency is build's interference graph computed from the
// per-instruction reference liveness, with every edge added in program
// order: the interference edges at each definition, then, call by call
// in ascending order, the caller-save clobbers of every register live
// out of the call. It returns each node's adjacency list, in the order
// build appends to it, and each node's row.
func referenceAdjacency(f *ir.Function, k int, pinned map[ir.Reg]int, g *cfg.Graph) ([][]int, []*bitset.Set) {
	ref := testutil.ReferenceLiveness(g)
	graph := ig.New()
	for _, r := range f.VRegs() {
		graph.Ensure(r)
	}
	for i, in := range f.Instrs {
		d := in.Def()
		if d == ir.None {
			continue
		}
		copySrc := ir.None
		if in.IsCopy() {
			copySrc = in.Src1
		}
		ref.LiveOut[i].ForEach(func(ri int) {
			if r := ir.Reg(ri); r != d && r != copySrc {
				graph.AddEdge(d, r)
			}
		})
	}
	nodes := graph.Nodes()
	idOf := map[ir.Reg]int{}
	n := k
	for _, nd := range nodes {
		if c, ok := pinned[nd.Key()]; ok {
			idOf[nd.Key()] = c - 1
			continue
		}
		idOf[nd.Key()] = n
		n++
	}
	adj := bitset.NewBatch(n, n)
	lists := make([][]int, n)
	add := func(u, v int) {
		if u == v || adj[u].Has(v) {
			return
		}
		adj[u].Add(v)
		adj[v].Add(u)
		if u >= k {
			lists[u] = append(lists[u], v)
		}
		if v >= k {
			lists[v] = append(lists[v], u)
		}
	}
	for _, nd := range nodes {
		for _, m := range nd.AdjNodes() {
			add(idOf[nd.Key()], idOf[m.Key()])
		}
	}
	for i, in := range f.Instrs {
		if in.Op != ir.OpCall {
			continue
		}
		ref.LiveOut[i].ForEach(func(ri int) {
			v, ok := idOf[ir.Reg(ri)]
			if ir.Reg(ri) == in.Dst || !ok || v < k {
				return
			}
			for c := 0; c < ir.CallerSaveCount(k); c++ {
				add(c, v)
			}
		})
	}
	return lists, adj
}

// branchAfterCall keeps x live across the second call only through the
// branch that closes the call's block.
const branchAfterCall = `int g() { return 1; }
int main() { int x; x = g(); g(); if (x) { print(1); } return 0; }`

// TestBuildMatchesReference: build's adjacency rows and the order of
// every adjacency list equal the reference's, on randprog functions and
// branchAfterCall routed through the call ABI at every k the paper
// evaluates. The lists' order steers simplification, so the blocks build
// walks must add the edges the reference adds in program order.
func TestBuildMatchesReference(t *testing.T) {
	sources := []string{branchAfterCall}
	for seed := int64(1); seed <= 6; seed++ {
		sources = append(sources, randprog.Generate(seed, randprog.DefaultConfig()))
	}
	calls := 0
	for si, src := range sources {
		p, err := testutil.Compile(src, lower.Options{})
		if err != nil {
			t.Fatalf("source %d: %v", si, err)
		}
		for _, orig := range p.Funcs {
			for _, k := range []int{3, 5, 7, 9} {
				f := orig.Clone()
				pinned := routeThroughABI(f)
				g, err := cfg.Build(f)
				if err != nil {
					t.Fatal(err)
				}
				a, err := build(f, k, regalloc.NewSpiller(f), pinned, g, dataflow.ComputeLiveness(g))
				if err != nil {
					t.Fatalf("source %d %s k=%d: %v", si, f.Name, k, err)
				}
				lists, adj := referenceAdjacency(f, k, pinned, g)
				if len(adj) != a.n {
					t.Fatalf("source %d %s k=%d: %d nodes, want %d", si, f.Name, k, a.n, len(adj))
				}
				for id := range adj {
					if !a.adj[id].Equal(adj[id]) || !slices.Equal(a.adjList[id], lists[id]) {
						t.Fatalf("source %d %s k=%d: node %d adjacent to %v (list %v), want %v (list %v)",
							si, f.Name, k, id, a.adj[id].Elems(), a.adjList[id], adj[id].Elems(), lists[id])
					}
				}
				for _, in := range f.Instrs {
					if in.Op == ir.OpCall {
						calls++
					}
				}
			}
		}
	}
	if calls == 0 {
		t.Fatal("no function calls anything: the clobber edges went unchecked")
	}
}
