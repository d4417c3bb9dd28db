// Package regalloc provides machinery shared by the GRA (Chaitin/Briggs),
// RAP and IRC allocators: the whole-function interference rule, spill
// slot management, code rewriting, and post-allocation validation.
package regalloc

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ig"
	"repro/internal/ir"
)

// ForEachInterference walks the blocks of g's function backward, each
// from its live-out set with one running set, and calls edge(d, r) for
// every interference: at every definition d, each register r live out of
// the instruction other than d itself, except that a copy's destination
// does not interfere with its source (Chaitin's rule; with first-fit
// colouring this is what lets copies collapse onto one register, the
// effect §4 of the paper highlights). A pair can be reported more than
// once, and in no useful order.
func ForEachInterference(g *cfg.Graph, lv *dataflow.Liveness, edge func(d, r ir.Reg)) {
	live := bitset.New(lv.NumRegs)
	for b, blk := range g.Blocks {
		live.Copy(lv.BlockOut(b))
		for i := blk.End - 1; i >= blk.Start; i-- {
			if d := g.Def(i); d != ir.None {
				copySrc := ir.None
				if in := g.F.Instrs[i]; in.IsCopy() {
					copySrc = in.Src1
				}
				live.ForEach(func(ri int) {
					if r := ir.Reg(ri); r != d && r != copySrc {
						edge(d, r)
					}
				})
			}
			lv.Step(live, i)
		}
	}
}

// BuildInterference refills graph with the classic whole-function
// interference graph, the one GRA colours: a node per referenced
// register and the edges of ForEachInterference. The nodes are made
// first and the rows are bitsets, so the order edges arrive in does not
// matter. graph is Reset first, so it keeps its storage from any earlier
// build.
func BuildInterference(graph *ig.Graph, f *ir.Function, g *cfg.Graph, lv *dataflow.Liveness) {
	graph.Reset()
	for _, r := range f.VRegs() {
		graph.Ensure(r)
	}
	ForEachInterference(g, lv, graph.AddEdge)
}

// Spiller hands out spill slots and spill temporaries, remembering which
// original register each renamed temporary stands for so that all spill
// code for one variable shares one slot.
type Spiller struct {
	F      *ir.Function
	slots  map[ir.Reg]int64
	origin map[ir.Reg]ir.Reg
	temps  map[ir.Reg]bool
}

// NewSpiller returns a Spiller for f.
func NewSpiller(f *ir.Function) *Spiller {
	return &Spiller{
		F:      f,
		slots:  map[ir.Reg]int64{},
		origin: map[ir.Reg]ir.Reg{},
		temps:  map[ir.Reg]bool{},
	}
}

// Origin returns the original register r was renamed from (r itself if it
// was never renamed).
func (sp *Spiller) Origin(r ir.Reg) ir.Reg {
	if o, ok := sp.origin[r]; ok {
		return o
	}
	return r
}

// SlotOf returns the spill slot for (the origin of) r, allocating one on
// first use.
func (sp *Spiller) SlotOf(r ir.Reg) int64 {
	o := sp.Origin(r)
	if s, ok := sp.slots[o]; ok {
		return s
	}
	s := int64(sp.F.SpillSlots)
	sp.F.SpillSlots++
	sp.slots[o] = s
	return s
}

// NewTemp returns a fresh register recorded as a spill temporary derived
// from r.
func (sp *Spiller) NewTemp(r ir.Reg) ir.Reg {
	t := sp.F.NewReg()
	sp.origin[t] = sp.Origin(r)
	sp.temps[t] = true
	return t
}

// Rename records that nr stands for (the origin of) r without marking it
// a short-lived spill temporary. RAP uses this for its per-region renames.
func (sp *Spiller) Rename(r, nr ir.Reg) {
	sp.origin[nr] = sp.Origin(r)
}

// IsTemp reports whether r is a spill temporary (these get infinite spill
// cost so the allocator never spills them again).
func (sp *Spiller) IsTemp(r ir.Reg) bool { return sp.temps[r] }

// Edit describes a batch of instruction insertions/replacements applied
// in one pass over a function body. Positions refer to the original
// instruction indices.
type Edit struct {
	// Before[i] is inserted immediately before original instruction i.
	Before map[int][]*ir.Instr
	// After[i] is inserted immediately after original instruction i.
	After map[int][]*ir.Instr
	// Delete[i] removes original instruction i.
	Delete map[int]bool
}

// NewEdit returns an empty edit batch.
func NewEdit() *Edit {
	return &Edit{Before: map[int][]*ir.Instr{}, After: map[int][]*ir.Instr{}, Delete: map[int]bool{}}
}

// InsertBefore schedules instructions before index i.
func (e *Edit) InsertBefore(i int, ins ...*ir.Instr) {
	e.Before[i] = append(e.Before[i], ins...)
}

// InsertAfter schedules instructions after index i.
func (e *Edit) InsertAfter(i int, ins ...*ir.Instr) {
	e.After[i] = append(e.After[i], ins...)
}

// Apply rewrites f's instruction list with the scheduled edits.
func (e *Edit) Apply(f *ir.Function) {
	out := make([]*ir.Instr, 0, len(f.Instrs)+len(e.Before)+len(e.After))
	for i, in := range f.Instrs {
		out = append(out, e.Before[i]...)
		if !e.Delete[i] {
			out = append(out, in)
		}
		out = append(out, e.After[i]...)
	}
	f.Instrs = out
}

// SpillEverywhere implements Chaitin-style spilling for a load/store
// architecture (§2.1): a load is inserted before every use of a spilled
// register and a store after every definition, with each reference renamed
// to a fresh short-lived temporary. Shared by the GRA and IRC backends.
func SpillEverywhere(f *ir.Function, sp *Spiller, spilled map[ir.Reg]bool) {
	edit := NewEdit()
	for i, in := range f.Instrs {
		perInstr := map[ir.Reg]ir.Reg{}
		in.RewriteUses(func(r ir.Reg) ir.Reg {
			if !spilled[r] {
				return r
			}
			if t, ok := perInstr[r]; ok {
				return t
			}
			t := sp.NewTemp(r)
			perInstr[r] = t
			edit.InsertBefore(i, &ir.Instr{
				Op: ir.OpLdSpill, Imm: sp.SlotOf(r), Dst: t, Region: in.Region,
			})
			return t
		})
		if d := in.Def(); d != ir.None && spilled[d] {
			t := sp.NewTemp(d)
			in.SetDef(t)
			edit.InsertAfter(i, &ir.Instr{
				Op: ir.OpStSpill, Src1: t, Imm: sp.SlotOf(d), Region: in.Region,
			})
		}
	}
	edit.Apply(f)
}

// RewriteToPhysical replaces every register with its node's colour and
// marks the function allocated. It fails if any referenced register has
// no coloured node.
func RewriteToPhysical(f *ir.Function, graph *ig.Graph, k int) error {
	var missing []ir.Reg
	for _, in := range f.Instrs {
		in.RewriteRegs(func(r ir.Reg) ir.Reg {
			n := graph.NodeOf(r)
			if n == nil || n.Color == 0 {
				missing = append(missing, r)
				return r
			}
			return ir.Reg(n.Color)
		})
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: registers %v have no colour", f.Name, missing)
	}
	f.Allocated = true
	f.K = k
	return nil
}

// RemoveSelfCopies deletes i2i r => r instructions. Both allocators run
// this: a copy whose operands received the same colour costs nothing, the
// mechanism by which the paper's allocators "eliminate" copies (§4).
func RemoveSelfCopies(f *ir.Function) int {
	out := f.Instrs[:0]
	removed := 0
	for _, in := range f.Instrs {
		if in.IsCopy() && in.Src1 == in.Dst {
			removed++
			continue
		}
		out = append(out, in)
	}
	f.Instrs = out
	return removed
}

// CheckPhysical validates an allocated function: every register operand
// is within [1,k].
func CheckPhysical(f *ir.Function) error {
	if !f.Allocated {
		return fmt.Errorf("%s: not allocated", f.Name)
	}
	var buf []ir.Reg
	for i, in := range f.Instrs {
		buf = in.Uses(buf[:0])
		if d := in.Def(); d != ir.None {
			buf = append(buf, d)
		}
		for _, r := range buf {
			if int(r) < 1 || int(r) > f.K {
				return fmt.Errorf("%s: instr %d (%s) uses register %s outside [1,%d]", f.Name, i, in, r, f.K)
			}
		}
	}
	return nil
}

// MinRegisters is the smallest register set the allocators support: a
// binary operation may need its two operands and (because of spill
// temporaries) a distinct result register.
const MinRegisters = 3

// MaxRounds bounds each allocator's build/colour/spill loop: GRA's and
// IRC's per function, RAP's per region.
const MaxRounds = 100
