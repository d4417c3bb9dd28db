package verify

import (
	"fmt"

	"repro/internal/ir"
)

// The renaming proof aligns the two instruction streams on their
// "anchors": the instructions an allocator preserves. Both allocators
// (and the naive oracle, the Fig. 6 peepholes and coalescing) only ever
// insert or delete register copies (i2i) and spill code (lds/sts); every
// other instruction survives in order with its non-register operands
// intact. Original copies that were deleted (self-copies after
// colouring, coalesced moves) therefore appear as unmatched orig-side
// "events", and inserted spill/copy code as unmatched alloc-side
// instructions processed at their own positions.

// isAnchor reports whether the op is preserved one-to-one by allocation.
func isAnchor(op ir.Op) bool {
	switch op {
	case ir.OpI2I, ir.OpLdSpill, ir.OpStSpill:
		return false
	}
	return true
}

// copyEvent is an original register copy (i2i src => dst): after it, dst
// holds whatever value src held. The allocated code may implement it with
// a copy, or have erased it entirely by giving src and dst one register.
type copyEvent struct {
	src, dst ir.Reg
}

// alignment is the instruction-by-instruction correspondence between the
// original and allocated bodies of one function. Its per-instruction
// tables are int32s carved from one allocation; the few copy events sit
// in two flat lists.
type alignment struct {
	// origAnchorOf[i] is the orig index matched with alloc instruction i,
	// or -1 for inserted spill/copy code.
	origAnchorOf []int32
	// closingOrig[i] is, for inserted code at alloc index i, the orig
	// index of the next matched anchor (len(orig.Instrs) when the code
	// sits after the last anchor). It names the original program point
	// the inserted instruction executes "just before", which picks the
	// liveness set the interference check uses. closingAlloc[i] is the
	// alloc index of that same anchor (len(alloc.Instrs) past the last).
	closingOrig  []int32
	closingAlloc []int32
	// The original copy events applied immediately before alloc
	// instruction i's transfer are pre[preAt[i]:preAt[i+1]], those
	// applied immediately after it post[postAt[i]:postAt[i+1]] (read
	// them through preEvents and postEvents). Events that would land at
	// the start of a label's block are re-attached to the end of the
	// preceding block instead, because in the original layout the copy
	// executes before the label — on the fall-through edge only, not on
	// every edge into the label.
	preAt, postAt []int32
	pre, post     []copyEvent
}

// preEvents returns the original copy events applied immediately before
// alloc instruction i's transfer.
func (al *alignment) preEvents(i int) []copyEvent { return al.pre[al.preAt[i]:al.preAt[i+1]] }

// postEvents returns the original copy events applied immediately after
// alloc instruction i's transfer.
func (al *alignment) postEvents(i int) []copyEvent { return al.post[al.postAt[i]:al.postAt[i+1]] }

// buildAlignment matches the anchors of orig and alloc pairwise and
// attaches orig copy events to alloc positions.
func buildAlignment(orig, alloc *ir.Function) (*alignment, error) {
	// The anchor indices of orig (oa) and alloc (aa), carved from one
	// allocation their instruction counts bound.
	no := len(orig.Instrs)
	idx := make([]int32, no+len(alloc.Instrs))
	oa, aa := idx[:0:no], idx[no:no]
	for i, in := range orig.Instrs {
		if isAnchor(in.Op) {
			oa = append(oa, int32(i))
		} else if in.Op != ir.OpI2I {
			return nil, fmt.Errorf("%s: original instr %d (%s) is spill code", orig.Name, i, in)
		}
	}
	for i, in := range alloc.Instrs {
		if isAnchor(in.Op) {
			aa = append(aa, int32(i))
		}
	}
	if len(oa) != len(aa) {
		return nil, fmt.Errorf("%s: anchor count mismatch: original has %d, allocated %d (an allocator inserted or deleted a non-spill instruction)", orig.Name, len(oa), len(aa))
	}
	n := len(alloc.Instrs)
	tab := make([]int32, 5*n+2)
	al := &alignment{
		origAnchorOf: tab[:n:n],
		closingOrig:  tab[n : 2*n : 2*n],
		closingAlloc: tab[2*n : 3*n : 3*n],
		preAt:        tab[3*n : 4*n+1 : 4*n+1],
		postAt:       tab[4*n+1:],
	}
	for i := range al.origAnchorOf {
		al.origAnchorOf[i] = -1
	}
	for j := range oa {
		o, a := orig.Instrs[oa[j]], alloc.Instrs[aa[j]]
		if err := matchAnchor(o, a); err != nil {
			return nil, fmt.Errorf("%s: anchor %d: original instr %d (%s) vs allocated instr %d (%s): %w",
				orig.Name, j, oa[j], o, aa[j], a, err)
		}
		al.origAnchorOf[aa[j]] = oa[j]
	}
	// closingOrig: alloc indices strictly between anchors j-1 and j close
	// at orig anchor j; indices after the last anchor close at the end.
	next := 0
	for i := range alloc.Instrs {
		for next < len(aa) && int(aa[next]) < i {
			next++
		}
		if next < len(aa) {
			al.closingOrig[i] = oa[next]
			al.closingAlloc[i] = aa[next]
		} else {
			al.closingOrig[i] = int32(no)
			al.closingAlloc[i] = int32(n)
		}
	}
	// Attach orig copy events to the gap they fall in. Events in the gap
	// before orig anchor j apply just before alloc anchor aa[j] — after
	// any spill/copy code the allocator put in the same gap (copy events
	// commute with inserted spill code: both only move values between
	// locations already holding them). The gaps come in ascending order,
	// so each list is appended in the order of the alloc index its
	// events attach to, and counting them there makes the offsets.
	gap := 0
	for _, in := range orig.Instrs {
		if isAnchor(in.Op) {
			gap++
			continue
		}
		ev := copyEvent{src: in.Src1, dst: in.Dst}
		if gap >= len(aa) {
			// After the final anchor: unreachable layout tail (code past
			// the terminating ret); nothing can observe the event.
			continue
		}
		ca := aa[gap]
		if alloc.Instrs[ca].Op == ir.OpLabel && ca > 0 {
			al.post = append(al.post, ev)
			al.postAt[ca]++ // one more event after alloc instruction ca-1
		} else {
			al.pre = append(al.pre, ev)
			al.preAt[ca+1]++
		}
	}
	for i := 0; i < n; i++ {
		al.preAt[i+1] += al.preAt[i]
		al.postAt[i+1] += al.postAt[i]
	}
	return al, nil
}

// matchAnchor checks that two anchors are the same instruction modulo
// register renaming: same opcode and identical non-register operands.
func matchAnchor(o, a *ir.Instr) error {
	if o.Op != a.Op {
		return fmt.Errorf("opcode changed")
	}
	if o.Imm != a.Imm {
		return fmt.Errorf("immediate changed: %d -> %d", o.Imm, a.Imm)
	}
	if o.FImm != a.FImm {
		return fmt.Errorf("float immediate changed: %g -> %g", o.FImm, a.FImm)
	}
	if o.Label != a.Label || o.Label2 != a.Label2 {
		return fmt.Errorf("branch target changed")
	}
	if o.Callee != a.Callee {
		return fmt.Errorf("callee changed: %s -> %s", o.Callee, a.Callee)
	}
	if len(o.Args) != len(a.Args) {
		return fmt.Errorf("argument count changed: %d -> %d", len(o.Args), len(a.Args))
	}
	if (o.Dst == ir.None) != (a.Dst == ir.None) && o.Op == ir.OpCall {
		return fmt.Errorf("call result presence changed")
	}
	if o.Op == ir.OpRet && (o.Src1 == ir.None) != (a.Src1 == ir.None) {
		return fmt.Errorf("return value presence changed")
	}
	return nil
}
