package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// RegionKind classifies region nodes of the pdgcc-style region tree.
type RegionKind int

// Region kinds.
const (
	RegionEntry RegionKind = iota // function entry region
	RegionStmt                    // one source statement (pdgcc artifact)
	RegionLoop                    // while/for loop (predicate + control code)
	RegionBody                    // loop body
	RegionThen                    // true branch of an if
	RegionElse                    // false branch of an if
)

func (k RegionKind) String() string {
	switch k {
	case RegionEntry:
		return "entry"
	case RegionStmt:
		return "stmt"
	case RegionLoop:
		return "loop"
	case RegionBody:
		return "body"
	case RegionThen:
		return "then"
	case RegionElse:
		return "else"
	}
	return fmt.Sprintf("RegionKind(%d)", int(k))
}

// Region is a node of the hierarchical region tree that the PDG's region
// nodes induce over the lowered code. Each instruction belongs to exactly
// one (innermost) region; a region's code is the union of its own
// instructions and those of its descendants, and — because MiniC is
// structured — always forms a contiguous interval of the instruction list.
type Region struct {
	ID       int
	Kind     RegionKind
	Parent   *Region
	Children []*Region
}

// IsLoop reports whether the region is a loop region (§3.2's spill-code
// motion applies to these).
func (r *Region) IsLoop() bool { return r.Kind == RegionLoop }

// Walk visits r and all descendants in depth-first preorder.
func (r *Region) Walk(f func(*Region)) {
	f(r)
	for _, c := range r.Children {
		c.Walk(f)
	}
}

// Function is a single IR function.
type Function struct {
	Name      string
	NumParams int
	// RetFloat records whether the declared result is a float (used by
	// callers only for documentation; values are raw 64-bit words).
	RetFloat bool
	// ParamFloat[i] reports whether parameter i is a float.
	ParamFloat []bool

	Instrs []*Instr

	// NextReg is the next unused virtual register number.
	NextReg Reg

	// LocalWords is the number of memory words the frame reserves for
	// local arrays.
	LocalWords int64

	// Regions is the root (entry) region of the function's region tree.
	Regions *Region
	// NumRegions is one past the highest region ID in use.
	NumRegions int

	// Allocated is true once a register allocator has rewritten the body
	// to physical registers.
	Allocated bool
	// K is the size of the physical register set when Allocated.
	K int
	// SpillSlots is the number of spill slots the frame reserves.
	SpillSlots int
	// ABI is true when the allocated body follows the physical call ABI
	// (see abi.go): calls clobber the caller-save registers, return
	// values travel in RetReg, and the interpreter runs the function on
	// the shared physical register file instead of a register window.
	ABI bool
}

// NewReg returns a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := f.NextReg
	f.NextReg++
	return r
}

// RegionByID returns the region with the given ID, or nil.
func (f *Function) RegionByID(id int) *Region {
	var found *Region
	if f.Regions == nil {
		return nil
	}
	f.Regions.Walk(func(r *Region) {
		if r.ID == id {
			found = r
		}
	})
	return found
}

// Span is a half-open instruction index interval [Start, End).
type Span struct {
	Start, End int
}

// Contains reports whether index i falls inside the span.
func (s Span) Contains(i int) bool { return i >= s.Start && i < s.End }

// Empty reports whether the span contains no instructions.
func (s Span) Empty() bool { return s.End <= s.Start }

// RegionSpans computes, for every region ID (indexing the returned
// slice), the instruction interval covered by the region's subtree.
// Regions with no instructions get an empty span positioned inside their
// parent. The result is recomputed on demand because passes insert and
// delete instructions. Region IDs are dense (0..NumRegions).
func (f *Function) RegionSpans() []Span {
	n := f.NumRegions
	if n == 0 {
		return nil
	}
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = Span{Start: -1, End: -1}
	}
	parent := f.RegionParents()
	for i, in := range f.Instrs {
		id := in.Region
		for id >= 0 && id < n {
			s := &spans[id]
			if s.Start < 0 {
				s.Start, s.End = i, i+1
			} else {
				if i < s.Start {
					s.Start = i
				}
				if i+1 > s.End {
					s.End = i + 1
				}
			}
			id = parent[id]
		}
	}
	// Give empty regions a zero-width span at their parent's end so that
	// Contains() is false everywhere but the span is well-formed.
	if f.Regions != nil {
		f.Regions.Walk(func(r *Region) {
			if r.ID >= n {
				return
			}
			if s := spans[r.ID]; s.Start < 0 {
				pos := 0
				if r.Parent != nil && r.Parent.ID < n {
					if ps := spans[r.Parent.ID]; ps.Start >= 0 {
						pos = ps.End
					}
				}
				spans[r.ID] = Span{Start: pos, End: pos}
			}
		})
	}
	return spans
}

// RegionParents returns a slice mapping region ID to parent region ID
// (-1 for the entry region and for IDs without a region node).
func (f *Function) RegionParents() []int {
	m := make([]int, f.NumRegions)
	for i := range m {
		m[i] = -1
	}
	if f.Regions == nil {
		return m
	}
	f.Regions.Walk(func(r *Region) {
		if r.ID >= len(m) {
			return
		}
		if r.Parent != nil {
			m[r.ID] = r.Parent.ID
		}
	})
	return m
}

// CheckRegions verifies structural invariants of the region tree:
// every instruction's region exists, and every region's subtree covers a
// contiguous instruction interval that nests properly inside its parent.
func (f *Function) CheckRegions() error {
	if f.Regions == nil {
		return fmt.Errorf("%s: no region tree", f.Name)
	}
	ids := map[int]bool{}
	f.Regions.Walk(func(r *Region) { ids[r.ID] = true })
	for i, in := range f.Instrs {
		if in.Region < 0 || in.Region >= f.NumRegions || !ids[in.Region] {
			return fmt.Errorf("%s: instr %d (%s) owned by unknown region %d", f.Name, i, in, in.Region)
		}
	}
	spans := f.RegionSpans()
	var err error
	f.Regions.Walk(func(r *Region) {
		if err != nil {
			return
		}
		s := spans[r.ID]
		// Contiguity: every instruction inside the span must belong to
		// the subtree.
		sub := map[int]bool{}
		r.Walk(func(c *Region) { sub[c.ID] = true })
		for i := s.Start; i < s.End; i++ {
			if !sub[f.Instrs[i].Region] {
				err = fmt.Errorf("%s: region %d span [%d,%d) broken at instr %d (region %d)",
					f.Name, r.ID, s.Start, s.End, i, f.Instrs[i].Region)
				return
			}
		}
		if r.Parent != nil {
			ps := spans[r.Parent.ID]
			if !s.Empty() && (s.Start < ps.Start || s.End > ps.End) {
				err = fmt.Errorf("%s: region %d span [%d,%d) escapes parent %d span [%d,%d)",
					f.Name, r.ID, s.Start, s.End, r.Parent.ID, ps.Start, ps.End)
			}
		}
	})
	return err
}

// LabelIndex returns a map from label name to the index of its OpLabel
// instruction.
func (f *Function) LabelIndex() map[string]int {
	m := map[string]int{}
	for i, in := range f.Instrs {
		if in.Op == OpLabel {
			m[in.Label] = i
		}
	}
	return m
}

// VRegs returns the registers referenced anywhere in the function body,
// ascending. It marks them in a dense table that covers every register
// below NextReg and grows for any higher one the body mentions.
func (f *Function) VRegs() []Reg {
	seen := make([]bool, f.NextReg)
	n := 0
	mark := func(r Reg) {
		for int(r) >= len(seen) {
			seen = append(seen, false)
		}
		if !seen[r] {
			seen[r] = true
			n++
		}
	}
	var buf []Reg
	for _, in := range f.Instrs {
		buf = in.Uses(buf[:0])
		for _, r := range buf {
			mark(r)
		}
		if d := in.Def(); d != None {
			mark(d)
		}
	}
	out := make([]Reg, 0, n)
	for r, ok := range seen {
		if ok {
			out = append(out, Reg(r))
		}
	}
	return out
}

// RefCounts counts the references to every register in the body, one
// per occurrence (an instruction reading a register twice counts it
// twice), indexed by register: the result covers every register below
// NextReg and any higher one the body mentions. It reuses buf's array
// when that is large enough.
func (f *Function) RefCounts(buf []int32) []int32 {
	counts := slices.Grow(buf[:0], int(f.NextReg))[:f.NextReg]
	clear(counts)
	inc := func(r Reg) {
		for int(r) >= len(counts) {
			counts = append(counts, 0)
		}
		counts[r]++
	}
	var ubuf []Reg
	for _, in := range f.Instrs {
		ubuf = in.Uses(ubuf[:0])
		for _, u := range ubuf {
			inc(u)
		}
		if d := in.Def(); d != None {
			inc(d)
		}
	}
	return counts
}

// String renders the function in the textual IR format understood by
// ParseFunction.
func (f *Function) String() string {
	pr := printer{buf: make([]byte, 0, 128)}
	f.writeText(&pr)
	pr.grow()
	f.writeText(&pr)
	return pr.sb.String()
}

// printer writes the textual IR one line at a time, formatting each line
// in one reused buffer. A caller emits the text twice: the first pass
// only measures it, so the second writes it into a builder grown once to
// its exact length. Printed programs are kept, in result caches and by
// their callers, and the string keeps the builder's whole buffer, so a
// buffer sized by an estimate would keep its slack alive with it.
type printer struct {
	sb      strings.Builder
	size    int
	writing bool // false during the measuring pass
	buf     []byte
}

// line emits b and a newline, and returns b's storage for the next line.
func (pr *printer) line(b []byte) []byte {
	b = append(b, '\n')
	if pr.writing {
		pr.sb.Write(b)
	} else {
		pr.size += len(b)
	}
	return b[:0]
}

// grow ends the measuring pass: the builder takes the measured length,
// and later lines are written.
func (pr *printer) grow() {
	pr.sb.Grow(pr.size)
	pr.writing = true
}

// writeText emits the function's textual form, as String returns it.
func (f *Function) writeText(pr *printer) {
	b := append(append(pr.buf, "func "...), f.Name...)
	b = strconv.AppendInt(append(b, " params="...), int64(f.NumParams), 10)
	b = strconv.AppendInt(append(b, " locals="...), f.LocalWords, 10)
	if f.Allocated {
		b = strconv.AppendInt(append(b, " k="...), int64(f.K), 10)
		b = strconv.AppendInt(append(b, " spills="...), int64(f.SpillSlots), 10)
		if f.ABI {
			b = append(b, " abi=1"...)
		}
	}
	b = pr.line(b)
	for _, in := range f.Instrs {
		if in.Op != OpLabel {
			b = append(b, "    "...)
		}
		b = pr.line(in.AppendText(b))
	}
	pr.buf = pr.line(append(b, "end"...))
}

// Clone returns a deep copy of the function, including the region tree.
func (f *Function) Clone() *Function {
	cp := *f
	cp.Instrs = make([]*Instr, len(f.Instrs))
	for i, in := range f.Instrs {
		cp.Instrs[i] = in.Clone()
	}
	cp.ParamFloat = append([]bool(nil), f.ParamFloat...)
	if f.Regions != nil {
		cp.Regions = cloneRegion(f.Regions, nil)
	}
	return &cp
}

func cloneRegion(r *Region, parent *Region) *Region {
	nr := &Region{ID: r.ID, Kind: r.Kind, Parent: parent}
	for _, c := range r.Children {
		nr.Children = append(nr.Children, cloneRegion(c, nr))
	}
	return nr
}

// Program is a compiled MiniC translation unit.
type Program struct {
	Funcs []*Function
	// GlobalWords is the number of memory words reserved for globals
	// (scalars and arrays), starting at address 0.
	GlobalWords int64
	// GlobalInit lists initial values for global words (address -> raw
	// 64-bit value). Uninitialized globals are zero.
	GlobalInit map[int64]int64
}

// Func returns the function named name, or nil.
func (p *Program) Func(name string) *Function {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	cp := &Program{GlobalWords: p.GlobalWords, GlobalInit: map[int64]int64{}}
	for a, v := range p.GlobalInit {
		cp.GlobalInit[a] = v
	}
	for _, f := range p.Funcs {
		cp.Funcs = append(cp.Funcs, f.Clone())
	}
	return cp
}

func (p *Program) String() string {
	addrs := make([]int64, 0, len(p.GlobalInit))
	for a := range p.GlobalInit {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	pr := printer{buf: make([]byte, 0, 128)}
	p.writeText(&pr, addrs)
	pr.grow()
	p.writeText(&pr, addrs)
	return pr.sb.String()
}

// writeText emits the program's textual form; addrs are the initialized
// global addresses, ascending.
func (p *Program) writeText(pr *printer, addrs []int64) {
	pr.buf = pr.line(strconv.AppendInt(append(pr.buf, "globals "...), p.GlobalWords, 10))
	for _, a := range addrs {
		b := strconv.AppendInt(append(pr.buf, "init "...), a, 10)
		pr.buf = pr.line(strconv.AppendInt(append(b, " = "...), p.GlobalInit[a], 10))
	}
	for _, f := range p.Funcs {
		f.writeText(pr)
	}
}
