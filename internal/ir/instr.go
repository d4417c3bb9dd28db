// Package ir defines the iloc-flavoured low-level intermediate
// representation that RAP and GRA allocate registers over.
//
// The IR models a load/store architecture: all computation happens in
// registers; memory is reached only through explicit load and store
// instructions. Code is generated with an unlimited supply of virtual
// registers; a register allocator rewrites it to use k physical registers,
// inserting spill loads (LdSpill) and stores (StSpill) as needed, exactly
// as in the paper (§2.1).
package ir

import "strconv"

// Reg names a register. Before allocation these are virtual registers
// numbered from 1; after allocation they are physical registers numbered
// from 1 to k. Reg 0 means "no register".
type Reg int

// None is the absent register.
const None Reg = 0

func (r Reg) String() string {
	if r == None {
		return "_"
	}
	return "r" + strconv.Itoa(int(r))
}

// appendReg appends r's textual form (String) to b.
func appendReg(b []byte, r Reg) []byte {
	if r == None {
		return append(b, '_')
	}
	return strconv.AppendInt(append(b, 'r'), int64(r), 10)
}

// Op is an IR opcode.
type Op int

// Opcodes. The mnemonics follow iloc where a counterpart exists.
const (
	OpLabel Op = iota // pseudo-instruction; costs no cycles

	OpLoadI // loadI imm => dst
	OpLoadF // loadF fimm => dst
	OpLea   // lea imm => dst            (dst = frame base + imm)

	OpAdd  // add src1, src2 => dst     (integer)
	OpSub  // sub
	OpMult // mult
	OpDiv  // div
	OpMod  // mod

	OpFAdd  // fadd src1, src2 => dst    (float, IEEE-754 bits in registers)
	OpFSub  // fsub
	OpFMult // fmult
	OpFDiv  // fdiv

	OpCmpLT // cmpLT src1, src2 => dst   (dst = 1 if src1 < src2 else 0)
	OpCmpLE
	OpCmpGT
	OpCmpGE
	OpCmpEQ
	OpCmpNE

	OpFCmpLT // float comparisons, integer 0/1 result
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE
	OpFCmpEQ
	OpFCmpNE

	OpNeg  // neg src1 => dst
	OpFNeg // fneg src1 => dst
	OpNot  // not src1 => dst            (logical: dst = src1==0 ? 1 : 0)

	OpI2I // i2i src1 => dst            (register copy)
	OpI2F // i2f src1 => dst            (int -> float)
	OpF2I // f2i src1 => dst            (float -> int, truncating)

	OpLoad    // ldm src1 => dst          (dst = mem[src1])
	OpStore   // stm src1 => src2         (mem[src2] = src1)
	OpLoadAI  // loadAI src1, imm => dst  (dst = mem[src1+imm]; iloc addressing mode)
	OpStoreAI // storeAI src1 => src2, imm (mem[src2+imm] = src1)
	OpLdSpill // lds slot => dst          (dst = spill[slot]; counts as a load)
	OpStSpill // sts src1 => slot         (spill[slot] = src1; counts as a store)

	OpCBr  // cbr src1 -> label, label2 (branch to label if src1 != 0)
	OpJump // jump -> label
	OpCall // call f(args...) => dst?   (dst = None for void calls)
	OpRet  // ret src1?                 (src1 = None for void returns)

	OpPrint  // print src1               (integer output)
	OpFPrint // fprint src1              (float output)
	OpArg    // arg src1                  (push an outgoing call argument)

	OpGetParam // getparam imm => dst      (dst = imm'th argument)

	NumOps // sentinel
)

var opNames = [NumOps]string{
	OpLabel:    "label",
	OpLoadI:    "loadI",
	OpLoadF:    "loadF",
	OpLea:      "lea",
	OpAdd:      "add",
	OpSub:      "sub",
	OpMult:     "mult",
	OpDiv:      "div",
	OpMod:      "mod",
	OpFAdd:     "fadd",
	OpFSub:     "fsub",
	OpFMult:    "fmult",
	OpFDiv:     "fdiv",
	OpCmpLT:    "cmpLT",
	OpCmpLE:    "cmpLE",
	OpCmpGT:    "cmpGT",
	OpCmpGE:    "cmpGE",
	OpCmpEQ:    "cmpEQ",
	OpCmpNE:    "cmpNE",
	OpFCmpLT:   "fcmpLT",
	OpFCmpLE:   "fcmpLE",
	OpFCmpGT:   "fcmpGT",
	OpFCmpGE:   "fcmpGE",
	OpFCmpEQ:   "fcmpEQ",
	OpFCmpNE:   "fcmpNE",
	OpNeg:      "neg",
	OpFNeg:     "fneg",
	OpNot:      "not",
	OpI2I:      "i2i",
	OpI2F:      "i2f",
	OpF2I:      "f2i",
	OpLoad:     "ldm",
	OpStore:    "stm",
	OpLoadAI:   "loadAI",
	OpStoreAI:  "storeAI",
	OpLdSpill:  "lds",
	OpStSpill:  "sts",
	OpCBr:      "cbr",
	OpJump:     "jump",
	OpCall:     "call",
	OpRet:      "ret",
	OpPrint:    "print",
	OpFPrint:   "fprint",
	OpArg:      "arg",
	OpGetParam: "getparam",
}

func (o Op) String() string {
	if o >= 0 && o < NumOps {
		return opNames[o]
	}
	return "Op(" + strconv.Itoa(int(o)) + ")"
}

// IsBinaryALU reports whether the op reads Src1 and Src2 and writes Dst.
func (o Op) IsBinaryALU() bool {
	return o >= OpAdd && o <= OpFCmpNE
}

// IsUnaryALU reports whether the op reads Src1 and writes Dst.
func (o Op) IsUnaryALU() bool {
	switch o {
	case OpNeg, OpFNeg, OpNot, OpI2I, OpI2F, OpF2I:
		return true
	}
	return false
}

// Instr is a single IR instruction.
//
// The meaning of each field depends on Op; unused fields are zero. Region
// identifies the innermost PDG region that owns the instruction (see
// ir.Region); it is maintained by the lowerer and by every pass that
// inserts code.
type Instr struct {
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64   // loadI value, lea/getparam/spill-slot operand
	FImm   float64 // loadF value
	Label  string  // label name / branch target
	Label2 string  // cbr false target
	Callee string
	Args   []Reg
	Region int
}

// Uses appends the registers read by the instruction to buf and returns it.
func (in *Instr) Uses(buf []Reg) []Reg {
	switch {
	case in.Op.IsBinaryALU():
		buf = append(buf, in.Src1, in.Src2)
	case in.Op.IsUnaryALU():
		buf = append(buf, in.Src1)
	default:
		switch in.Op {
		case OpLoad, OpLoadAI:
			buf = append(buf, in.Src1)
		case OpStore, OpStoreAI:
			buf = append(buf, in.Src1, in.Src2)
		case OpStSpill, OpCBr, OpPrint, OpFPrint, OpArg:
			buf = append(buf, in.Src1)
		case OpRet:
			if in.Src1 != None {
				buf = append(buf, in.Src1)
			}
		case OpCall:
			buf = append(buf, in.Args...)
		}
	}
	return buf
}

// Def returns the register written by the instruction, or None.
func (in *Instr) Def() Reg {
	switch {
	case in.Op.IsBinaryALU(), in.Op.IsUnaryALU():
		return in.Dst
	}
	switch in.Op {
	case OpLoadI, OpLoadF, OpLea, OpLoad, OpLoadAI, OpLdSpill, OpGetParam:
		return in.Dst
	case OpCall:
		return in.Dst // may be None for void calls
	}
	return None
}

// IsCopy reports whether the instruction is a register-to-register copy.
func (in *Instr) IsCopy() bool { return in.Op == OpI2I }

// IsBranch reports whether the instruction ends a basic block.
func (in *Instr) IsBranch() bool {
	switch in.Op {
	case OpCBr, OpJump, OpRet:
		return true
	}
	return false
}

func (in *Instr) String() string {
	var buf [64]byte
	return string(in.AppendText(buf[:0]))
}

// AppendText appends the instruction's textual form, the syntax
// ParseFunction reads and String returns, to b. Printing allocated code
// is on the serve path, so it formats with strconv rather than fmt.
func (in *Instr) AppendText(b []byte) []byte {
	switch in.Op {
	case OpLabel:
		return append(append(b, in.Label...), ':')
	case OpLoadI, OpLea, OpLdSpill, OpGetParam:
		b = strconv.AppendInt(append(append(b, opNames[in.Op]...), ' '), in.Imm, 10)
		return appendReg(append(b, " => "...), in.Dst)
	case OpLoadF:
		// 'g' with the shortest precision is what fmt's %g prints.
		b = strconv.AppendFloat(append(b, "loadF "...), in.FImm, 'g', -1, 64)
		return appendReg(append(b, " => "...), in.Dst)
	case OpLoad:
		b = appendReg(append(b, "ldm "...), in.Src1)
		return appendReg(append(b, " => "...), in.Dst)
	case OpStore:
		b = appendReg(append(b, "stm "...), in.Src1)
		return appendReg(append(b, " => "...), in.Src2)
	case OpLoadAI:
		b = appendReg(append(b, "loadAI "...), in.Src1)
		b = strconv.AppendInt(append(b, ", "...), in.Imm, 10)
		return appendReg(append(b, " => "...), in.Dst)
	case OpStoreAI:
		b = appendReg(append(b, "storeAI "...), in.Src1)
		b = appendReg(append(b, " => "...), in.Src2)
		return strconv.AppendInt(append(b, ", "...), in.Imm, 10)
	case OpStSpill:
		b = appendReg(append(b, "sts "...), in.Src1)
		return strconv.AppendInt(append(b, " => "...), in.Imm, 10)
	case OpCBr:
		b = appendReg(append(b, "cbr "...), in.Src1)
		b = append(append(b, " -> "...), in.Label...)
		return append(append(b, ", "...), in.Label2...)
	case OpJump:
		return append(append(b, "jump -> "...), in.Label...)
	case OpCall:
		b = append(append(append(b, "call "...), in.Callee...), '(')
		for i, a := range in.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendReg(b, a)
		}
		b = append(b, ')')
		if in.Dst != None {
			b = appendReg(append(b, " => "...), in.Dst)
		}
		return b
	case OpRet:
		if in.Src1 == None {
			return append(b, "ret"...)
		}
		return appendReg(append(b, "ret "...), in.Src1)
	case OpPrint, OpFPrint, OpArg:
		return appendReg(append(append(b, opNames[in.Op]...), ' '), in.Src1)
	}
	if in.Op.IsBinaryALU() {
		b = appendReg(append(append(b, opNames[in.Op]...), ' '), in.Src1)
		b = appendReg(append(b, ", "...), in.Src2)
		return appendReg(append(b, " => "...), in.Dst)
	}
	if in.Op.IsUnaryALU() {
		b = appendReg(append(append(b, opNames[in.Op]...), ' '), in.Src1)
		return appendReg(append(b, " => "...), in.Dst)
	}
	return append(append(b, in.Op.String()...), '?')
}

// Clone returns a deep copy of the instruction.
func (in *Instr) Clone() *Instr {
	cp := *in
	if in.Args != nil {
		cp.Args = append([]Reg(nil), in.Args...)
	}
	return &cp
}

// RewriteUses applies f to every register the instruction reads, leaving
// the definition untouched.
func (in *Instr) RewriteUses(f func(Reg) Reg) {
	switch {
	case in.Op.IsBinaryALU():
		in.Src1 = f(in.Src1)
		in.Src2 = f(in.Src2)
	case in.Op.IsUnaryALU():
		in.Src1 = f(in.Src1)
	default:
		switch in.Op {
		case OpLoad, OpLoadAI, OpStSpill, OpCBr, OpPrint, OpFPrint, OpArg:
			in.Src1 = f(in.Src1)
		case OpStore, OpStoreAI:
			in.Src1 = f(in.Src1)
			in.Src2 = f(in.Src2)
		case OpRet:
			if in.Src1 != None {
				in.Src1 = f(in.Src1)
			}
		case OpCall:
			for i, a := range in.Args {
				in.Args[i] = f(a)
			}
		}
	}
}

// SetDef replaces the register the instruction defines. It is a no-op for
// instructions that define nothing.
func (in *Instr) SetDef(r Reg) {
	if in.Def() != None {
		in.Dst = r
	}
}

// RewriteRegs applies f to every register operand of the instruction.
func (in *Instr) RewriteRegs(f func(Reg) Reg) {
	rw := func(r Reg) Reg {
		if r == None {
			return None
		}
		return f(r)
	}
	in.Dst = rw(in.Dst)
	in.Src1 = rw(in.Src1)
	in.Src2 = rw(in.Src2)
	for i, a := range in.Args {
		in.Args[i] = rw(a)
	}
}
