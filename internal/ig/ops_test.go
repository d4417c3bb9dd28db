package ig_test

// Random operation sequences applied to the dense graph and to the
// map-backed reference (reference_test.go) must leave both rendering
// alike and answering every register lookup alike. The sequences use
// register numbers in the thousands, rename registers and merge nodes
// through AddRegToNode. They grow graphs past the node count where a
// graph starts indexing its registers, merge them back below it, and
// reset the dense graph between sequences while the reference starts
// afresh, so every reused node struct, member list, adjacency row, index
// entry and colouring array must behave like new.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ig"
	"repro/internal/ir"
)

// opsPair is one dense graph and its reference twin.
type opsPair struct {
	d *ig.Graph
	r *refGraph
}

// opsRun drives pairs of graphs with the same random operations.
type opsRun struct {
	t    *testing.T
	rng  *rand.Rand
	pool []ir.Reg // every register used so far
	next ir.Reg   // the next fresh register for renames
	// grew: a graph has had more than IndexMin nodes since its last
	// reset; shrank: one then went below IndexMin. Both count only once a
	// graph has been reset.
	reset, grew, shrank bool
}

func (o *opsRun) reg() ir.Reg {
	if len(o.pool) > 0 && o.rng.Intn(3) > 0 {
		return o.pool[o.rng.Intn(len(o.pool))]
	}
	var r ir.Reg
	if o.rng.Intn(4) == 0 {
		r = ir.Reg(1 + o.rng.Intn(40))
	} else {
		r = ir.Reg(1000 + o.rng.Intn(4000))
	}
	o.pool = append(o.pool, r)
	return r
}

// members returns the registers of p's nodes, ascending.
func members(p *opsPair) []ir.Reg {
	out := make([]ir.Reg, 0, len(p.r.byReg))
	for r := range p.r.byReg {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// member returns a register of some node of p, or None.
func (o *opsRun) member(p *opsPair) ir.Reg {
	m := members(p)
	if len(m) == 0 {
		return ir.None
	}
	return m[o.rng.Intn(len(m))]
}

func (o *opsRun) check(p *opsPair, label string) {
	o.t.Helper()
	if got, want := p.d.String(), p.r.String(); got != want {
		o.t.Fatalf("%s: graphs differ:\ndense:\n%s\nref:\n%s", label, got, want)
	}
	if got, want := p.d.NumNodes(), len(p.r.nodes); got != want {
		o.t.Fatalf("%s: %d nodes, reference %d", label, got, want)
	}
	want := members(p)
	probes := append(want[:len(want):len(want)], ir.None, 999999, o.next)
	for i := 0; i < 16 && len(o.pool) > 0; i++ {
		probes = append(probes, o.pool[o.rng.Intn(len(o.pool))])
	}
	for _, r := range probes {
		dn, rn := p.d.NodeOf(r), p.r.NodeOf(r)
		if (dn == nil) != (rn == nil) || (dn != nil && dn.Key() != rn.Key()) {
			o.t.Fatalf("%s: NodeOf(%s) = %v, reference %v", label, r, dn, rn)
		}
	}
	for i := 0; i < 8 && len(o.pool) > 0; i++ {
		a, b := o.pool[o.rng.Intn(len(o.pool))], o.pool[o.rng.Intn(len(o.pool))]
		na, nb := p.r.NodeOf(a), p.r.NodeOf(b)
		adj := na != nil && nb != nil && na != nb && na.Adj[nb]
		if got := p.d.Interferes(a, b); got != adj {
			o.t.Fatalf("%s: Interferes(%s, %s) = %v, reference %v", label, a, b, got, adj)
		}
	}
	if !o.reset {
		return
	}
	if n := p.d.NumNodes(); n > ig.IndexMin {
		o.grew = true
	} else if o.grew && n < ig.IndexMin {
		o.shrank = true
	}
}

// step applies one random operation to p. grow biases the mix toward
// adding nodes, otherwise toward merging them.
func (o *opsRun) step(p *opsPair, grow bool, label string) {
	op := o.rng.Intn(10)
	if !grow {
		op = 5 + o.rng.Intn(5)
	}
	switch {
	case op < 2:
		r := o.reg()
		p.d.Ensure(r)
		p.r.Ensure(r)
	case op < 5:
		a, b := o.reg(), o.reg()
		p.d.AddEdge(a, b)
		p.r.AddEdge(a, b)
	case op < 8:
		// A member of one node into another node: a merge, or a new
		// member when the register is fresh.
		x := o.member(p)
		if x == ir.None {
			return
		}
		y := o.reg()
		if o.rng.Intn(2) == 0 {
			if m := o.member(p); m != ir.None {
				y = m
			}
		}
		p.d.AddRegToNode(p.d.NodeOf(x), y)
		p.r.AddRegToNode(p.r.NodeOf(x), y)
	case op == 8:
		if x := o.member(p); x != ir.None {
			y := o.next
			o.next++
			o.pool = append(o.pool, y)
			p.d.RenameReg(x, y)
			p.r.RenameReg(x, y)
		}
	default:
		if x := o.member(p); x != ir.None {
			dn, rn := p.d.NodeOf(x), p.r.NodeOf(x)
			dn.Global, rn.Global = !dn.Global, !rn.Global
			dn.Color, rn.Color = int(x)%5, int(x)%5
		}
	}
	o.check(p, label)
}

// cycle grows p past twice IndexMin nodes, then merges until it is below
// half of it.
func (o *opsRun) cycle(p *opsPair, label string) {
	for i := 0; p.d.NumNodes() <= 2*ig.IndexMin && i < 2000; i++ {
		o.step(p, true, label)
	}
	for i := 0; p.d.NumNodes() >= ig.IndexMin/2 && i < 2000; i++ {
		o.step(p, false, label)
	}
}

// restart resets p's dense graph, keeping its storage, and gives it a
// fresh reference.
func (o *opsRun) restart(p *opsPair, label string) {
	p.d.Reset()
	p.r = newRefGraph()
	o.reset = true
	o.check(p, label)
}

// colour gives p's twins the same spill costs, colours both with k
// colours and checks they spill alike, then checks the combined graph.
func (o *opsRun) colour(p *opsPair, k int, globalsDistinct bool, label string) {
	t := o.t
	t.Helper()
	for p.d.NumNodes() <= 2*ig.IndexMin {
		o.step(p, true, label)
	}
	for _, n := range p.d.Nodes() {
		n.SpillCost = float64(int(n.Key()) % 7)
	}
	for _, n := range p.r.Nodes() {
		n.SpillCost = float64(int(n.Key()) % 7)
	}
	res := p.d.Color(k, globalsDistinct)
	ref := p.r.Color(k, globalsDistinct)
	if got, want := fmt.Sprint(spillKeys(res.Spilled)), fmt.Sprint(refSpillKeys(ref)); got != want {
		t.Fatalf("%s: k=%d spills %s, reference %s", label, k, got, want)
	}
	o.check(p, label)
	sum := p.d.Combine()
	if sum.NumNodes() > k {
		t.Fatalf("%s: combined graph has %d nodes, k=%d", label, sum.NumNodes(), k)
	}
	for r, rn := range p.r.byReg {
		sn := sum.NodeOf(r)
		if rn.Color == 0 {
			if sn != nil {
				t.Fatalf("%s: spilled %s is in the combined graph", label, r)
			}
			continue
		}
		if sn == nil || sn.Color != rn.Color {
			t.Fatalf("%s: %s combined into %v, want colour %d", label, r, sn, rn.Color)
		}
	}
}

func TestDenseOpsMatchReference(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 6
	}
	for trial := range trials {
		o := &opsRun{t: t, rng: rand.New(rand.NewSource(int64(trial))), next: 5000}
		label := func(name string) string { return fmt.Sprintf("trial %d %s", trial, name) }
		k := 3 + trial%20
		// a grows past the index threshold before its first reset, so it
		// is reset with an index; b stays small, so it is reset without
		// one.
		a := &opsPair{ig.New(), newRefGraph()}
		b := &opsPair{ig.New(), newRefGraph()}
		o.cycle(a, label("a"))
		o.colour(a, k, trial%2 == 0, label("a colour"))
		for i := 0; b.d.NumNodes() < ig.IndexMin/2 && i < 2000; i++ {
			o.step(b, true, label("b"))
		}
		for round := range 3 {
			name := fmt.Sprintf("reset %d", round)
			o.restart(a, label("a "+name))
			o.restart(b, label("b "+name))
			o.cycle(a, label("a "+name))
			o.cycle(b, label("b "+name))
			// Reset a coloured graph and colour again, at another k.
			o.colour(a, k+round, (trial+round)%2 == 0, label("a "+name+" colour"))
		}
		if !o.grew || !o.shrank {
			t.Fatalf("%s: node counts never crossed %d both ways after a reset", label("bounds"), ig.IndexMin)
		}
		o.colour(b, k, trial%2 == 1, label("b colour"))
	}
}
