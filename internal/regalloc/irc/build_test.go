package irc

import (
	"errors"
	"fmt"
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
func referenceAdjacency(f *ir.Function, k int, pins []pin, g *cfg.Graph) ([][]int, []*bitset.Set) {
	pinned := map[ir.Reg]int{}
	for _, p := range pins {
		pinned[p.reg] = p.color
	}
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
	adj := new(bitset.Batch).Carve(n, n)
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
		nd.ForEachAdj(func(m *ig.Node) { add(idOf[nd.Key()], idOf[m.Key()]) })
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
				pins := routeThroughABI(nil, f)
				g, err := cfg.Build(f)
				if err != nil {
					t.Fatal(err)
				}
				a := &allocator{f: f, k: k, sp: regalloc.NewSpiller(f), pins: pins}
				if err := a.build(g, dataflow.ComputeLiveness(g)); err != nil {
					t.Fatalf("source %d %s k=%d: %v", si, f.Name, k, err)
				}
				lists, adj := referenceAdjacency(f, k, pins, g)
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

// sameBuild reports how two allocators differ just after build: their
// register/id tables, rows, adjacency lists, degrees, node states, moves,
// move lists, costs and worklists.
func sameBuild(got, want *allocator) error {
	if got.n != want.n {
		return fmt.Errorf("%d nodes, want %d", got.n, want.n)
	}
	if !slices.Equal(got.regOf, want.regOf) {
		return fmt.Errorf("regOf = %v, want %v", got.regOf, want.regOf)
	}
	if !slices.Equal(got.idOf, want.idOf) {
		return fmt.Errorf("idOf = %v, want %v", got.idOf, want.idOf)
	}
	for id := 0; id < want.n; id++ {
		if !got.adj[id].Equal(want.adj[id]) || !slices.Equal(got.adjList[id], want.adjList[id]) ||
			!slices.Equal(got.moveList[id], want.moveList[id]) {
			return fmt.Errorf("node %d: row %v list %v moves %v, want row %v list %v moves %v", id,
				got.adj[id].Elems(), got.adjList[id], got.moveList[id],
				want.adj[id].Elems(), want.adjList[id], want.moveList[id])
		}
	}
	if got.nCoalesced != want.nCoalesced {
		return fmt.Errorf("%d moves coalesced, want %d", got.nCoalesced, want.nCoalesced)
	}
	return errors.Join(
		diff("degree", got.degree, want.degree),
		diff("where", got.where, want.where),
		diff("alias", got.alias, want.alias),
		diff("color", got.color, want.color),
		diff("cost", got.cost, want.cost),
		diff("moves", got.moves, want.moves),
		diff("moveState", got.moveState, want.moveState),
		diff("simplifyWL", got.simplifyWL, want.simplifyWL),
		diff("freezeWL", got.freezeWL, want.freezeWL),
		diff("spillWL", got.spillWL, want.spillWL),
		diff("worklistMoves", got.worklistMoves, want.worklistMoves),
		diff("selectStack", got.selectStack, want.selectStack),
		diff("coalescedNodes", got.coalescedNodes, want.coalescedNodes),
		diff("spilled", got.spilled, want.spilled),
	)
}

func diff[T comparable](name string, got, want []T) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s = %v, want %v", name, got, want)
	}
	return nil
}

// TestReusedBuildMatchesFresh: after every rebuild round, the allocator
// that build reset and refilled in place, reused across rounds and,
// through the pool, across functions, equals one built fresh on the
// same body. It runs randprog programs with the serve-compile
// benchmark's generator settings at k=3, where IRC spills most, and
// requires 20 functions that take three rounds or more.
func TestReusedBuildMatchesFresh(t *testing.T) {
	var fn string
	round, failures := 0, 0
	defer func() { afterBuild = nil }()
	afterBuild = func(a *allocator) {
		round++
		g, err := cfg.Build(a.f)
		if err != nil {
			t.Fatal(err)
		}
		fresh := &allocator{f: a.f, k: a.k, sp: a.sp, pins: a.pins}
		if err := fresh.build(g, dataflow.ComputeLiveness(g)); err != nil {
			t.Fatalf("%s round %d: fresh build: %v", fn, round, err)
		}
		if err := sameBuild(a, fresh); err != nil && failures < 5 {
			failures++
			t.Errorf("%s round %d: %v", fn, round, err)
		}
	}
	long := 0
	for seed := int64(1); seed <= 40; seed++ {
		src := randprog.Generate(seed, randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 5, MaxDepth: 2, Floats: true})
		p, err := testutil.Compile(src, lower.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, f := range p.Funcs {
			fn = fmt.Sprintf("seed %d %s", seed, f.Name)
			round = 0
			if err := Allocate(f, 3, Options{}); err != nil {
				t.Fatalf("%s: %v", fn, err)
			}
			if round >= 3 {
				long++
			}
		}
	}
	if long < 20 {
		t.Fatalf("%d functions took three rounds or more, want at least 20", long)
	}
	t.Logf("%d functions took three rounds or more", long)
}
