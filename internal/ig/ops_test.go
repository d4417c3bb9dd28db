package ig_test

// Random operation sequences applied to the dense graph and to the
// map-backed reference (reference_test.go) must leave both rendering
// alike and answering every register lookup alike. The sequences use
// register numbers in the thousands, rename registers and merge nodes
// through AddRegToNode. They grow graphs
// past the node count where a graph starts indexing its registers in a
// Table, merge them back below it, and build graphs in turn on one
// shared Table, so that earlier graphs lose it while still in use.

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
	// grew: a graph has had more than TableMin nodes; shrank: one then
	// went below TableMin.
	grew, shrank bool
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
	if n := p.d.NumNodes(); n > ig.TableMin {
		o.grew = true
	} else if o.grew && n < ig.TableMin {
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

// cycle grows p past twice TableMin nodes, then merges until it is below
// half of it.
func (o *opsRun) cycle(p *opsPair, label string) {
	for i := 0; p.d.NumNodes() <= 2*ig.TableMin && i < 2000; i++ {
		o.step(p, true, label)
	}
	for i := 0; p.d.NumNodes() >= ig.TableMin/2 && i < 2000; i++ {
		o.step(p, false, label)
	}
}

func TestDenseOpsMatchReference(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 6
	}
	var tab ig.Table
	for trial := range trials {
		o := &opsRun{t: t, rng: rand.New(rand.NewSource(int64(trial))), next: 5000}
		label := func(name string) string { return fmt.Sprintf("trial %d %s", trial, name) }
		// One graph on its own, one on the shared table.
		a := &opsPair{ig.New(), newRefGraph()}
		b := &opsPair{ig.NewOn(&tab), newRefGraph()}
		o.cycle(a, label("New"))
		o.cycle(b, label("NewOn"))
		// A later graph takes the table over while b is still in use.
		c := &opsPair{ig.NewOn(&tab), newRefGraph()}
		for range 3 {
			o.cycle(c, label("NewOn (taker)"))
			o.cycle(b, label("NewOn (lost its table)"))
		}
		if !o.grew || !o.shrank {
			t.Fatalf("%s: node counts never crossed %d both ways", label("bounds"), ig.TableMin)
		}
		// Colour and combine the grown-back graphs alike.
		for _, p := range []*opsPair{a, b, c} {
			o.cycle(p, label("final"))
			for p.d.NumNodes() <= 2*ig.TableMin {
				o.step(p, true, label("final"))
			}
			for _, n := range p.d.Nodes() {
				n.SpillCost = float64(int(n.Key()) % 7)
			}
			for _, n := range p.r.Nodes() {
				n.SpillCost = float64(int(n.Key()) % 7)
			}
			k := 3 + trial%20
			res := p.d.Color(k, trial%2 == 0)
			ref := p.r.Color(k, trial%2 == 0)
			if got, want := fmt.Sprint(spillKeys(res.Spilled)), fmt.Sprint(refSpillKeys(ref)); got != want {
				t.Fatalf("%s: k=%d spills %s, reference %s", label("colour"), k, got, want)
			}
			o.check(p, label("colour"))
			sum := p.d.Combine()
			if sum.NumNodes() > k {
				t.Fatalf("%s: combined graph has %d nodes, k=%d", label("combine"), sum.NumNodes(), k)
			}
			for r, rn := range p.r.byReg {
				sn := sum.NodeOf(r)
				if rn.Color == 0 {
					if sn != nil {
						t.Fatalf("%s: spilled %s is in the combined graph", label("combine"), r)
					}
					continue
				}
				if sn == nil || sn.Color != rn.Color {
					t.Fatalf("%s: %s combined into %v, want colour %d", label("combine"), r, sn, rn.Color)
				}
			}
		}
	}
}
