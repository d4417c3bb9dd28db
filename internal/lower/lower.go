// Package lower translates checked MiniC ASTs into iloc-like IR with an
// unlimited supply of virtual registers, building the pdgcc-style region
// tree as it goes: one region node per source statement, exactly as the
// front end used in the paper does (§4: "the pdgcc compiler ... creates a
// region node for each C statement").
package lower

import (
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/token"
)

// Options configures lowering.
type Options struct {
	// MergeStatements, when true, suppresses the per-statement region
	// nodes so consecutive simple statements share their parent region.
	// This is the region-granularity ablation the paper proposes in its
	// conclusions ("increasing the number of iloc statements within a
	// region").
	MergeStatements bool
}

// Lower translates the program. The AST must already be checked by sem.
func Lower(prog *ast.Program, opts Options) (*ir.Program, error) {
	lw := &lowerer{
		opts: opts,
		out:  &ir.Program{GlobalInit: map[int64]int64{}},
	}
	if err := lw.layoutGlobals(prog); err != nil {
		return nil, err
	}
	for _, fd := range prog.Funcs {
		f, err := lw.function(fd)
		if err != nil {
			return nil, err
		}
		lw.out.Funcs = append(lw.out.Funcs, f)
	}
	return lw.out, nil
}

type lowerer struct {
	opts Options
	out  *ir.Program

	f          *ir.Function
	fdecl      *ast.FuncDecl
	nextLabel  int
	nextRegion int
	cur        *ir.Region
	// Loop context for break/continue.
	breakLabels []string
	contLabels  []string
	localOffset int64
}

// MaxGlobalWords bounds the memory words a program's globals take, the
// same bound as the interpreter's default stack (1<<22 words, 32 MiB).
// The interpreter allocates every global before the program starts, so
// one large array declaration would otherwise be enough to exhaust a
// worker's memory. The largest Table 1 or extended-suite program needs
// 9,730 words (livermore).
const MaxGlobalWords = 1 << 22

func (lw *lowerer) layoutGlobals(prog *ast.Program) error {
	var addr int64
	for _, g := range prog.Globals {
		g.Sym.Addr = addr
		words := int64(1)
		if g.IsArr {
			words = g.ArrLen
		}
		if words > MaxGlobalWords-addr {
			return fmt.Errorf("global %s: globals need more than %d words", g.Name, MaxGlobalWords)
		}
		addr += words
		if g.IsArr || g.Init == nil {
			continue
		}
		switch lit := g.Init.(type) {
		case *ast.IntLit:
			if g.Type == ast.Float {
				lw.out.GlobalInit[g.Sym.Addr] = int64(math.Float64bits(float64(lit.Value)))
			} else {
				lw.out.GlobalInit[g.Sym.Addr] = lit.Value
			}
		case *ast.FloatLit:
			lw.out.GlobalInit[g.Sym.Addr] = int64(math.Float64bits(lit.Value))
		case *ast.Cast:
			switch inner := lit.X.(type) {
			case *ast.IntLit:
				lw.out.GlobalInit[g.Sym.Addr] = int64(math.Float64bits(float64(inner.Value)))
			case *ast.FloatLit:
				lw.out.GlobalInit[g.Sym.Addr] = int64(inner.Value)
			default:
				return fmt.Errorf("global %s: unsupported initializer", g.Name)
			}
		default:
			return fmt.Errorf("global %s: unsupported initializer", g.Name)
		}
	}
	lw.out.GlobalWords = addr
	return nil
}

func (lw *lowerer) function(fd *ast.FuncDecl) (*ir.Function, error) {
	lw.f = &ir.Function{
		Name:      fd.Name,
		NumParams: len(fd.Params),
		RetFloat:  fd.Ret == ast.Float,
		NextReg:   1,
	}
	lw.fdecl = fd
	lw.nextLabel = 0
	lw.nextRegion = 0
	lw.localOffset = 0
	lw.breakLabels = nil
	lw.contLabels = nil

	entry := &ir.Region{ID: lw.newRegionID(), Kind: ir.RegionEntry}
	lw.f.Regions = entry
	lw.cur = entry

	for i := range fd.Params {
		prm := &fd.Params[i]
		lw.f.ParamFloat = append(lw.f.ParamFloat, prm.Type == ast.Float)
		prm.Sym.VReg = int(lw.f.NewReg())
		lw.emit(&ir.Instr{Op: ir.OpGetParam, Imm: int64(i), Dst: ir.Reg(prm.Sym.VReg)})
	}
	if err := lw.stmtList(fd.Body.Stmts); err != nil {
		return nil, err
	}
	// Guarantee the function ends with a return.
	if n := len(lw.f.Instrs); n == 0 || lw.f.Instrs[n-1].Op != ir.OpRet {
		if fd.Ret == ast.Void {
			lw.emit(&ir.Instr{Op: ir.OpRet})
		} else {
			z := lw.f.NewReg()
			if fd.Ret == ast.Float {
				lw.emit(&ir.Instr{Op: ir.OpLoadF, FImm: 0, Dst: z})
			} else {
				lw.emit(&ir.Instr{Op: ir.OpLoadI, Imm: 0, Dst: z})
			}
			lw.emit(&ir.Instr{Op: ir.OpRet, Src1: z})
		}
	}
	lw.f.LocalWords = lw.localOffset
	lw.f.NumRegions = lw.nextRegion
	if err := lw.f.CheckRegions(); err != nil {
		return nil, fmt.Errorf("lowering produced a malformed region tree: %w", err)
	}
	return lw.f, nil
}

func (lw *lowerer) newRegionID() int {
	id := lw.nextRegion
	lw.nextRegion++
	return id
}

// openRegion creates a child region of the current region and makes it
// current. It returns the region.
func (lw *lowerer) openRegion(kind ir.RegionKind) *ir.Region {
	r := &ir.Region{ID: lw.newRegionID(), Kind: kind, Parent: lw.cur}
	lw.cur.Children = append(lw.cur.Children, r)
	lw.cur = r
	return r
}

func (lw *lowerer) closeRegion() { lw.cur = lw.cur.Parent }

// stmtRegion opens a per-statement region unless statement merging is on.
func (lw *lowerer) stmtRegion() bool {
	if lw.opts.MergeStatements {
		return false
	}
	lw.openRegion(ir.RegionStmt)
	return true
}

func (lw *lowerer) emit(in *ir.Instr) *ir.Instr {
	in.Region = lw.cur.ID
	lw.f.Instrs = append(lw.f.Instrs, in)
	return in
}

func (lw *lowerer) newLabel() string {
	lw.nextLabel++
	return fmt.Sprintf("%s.L%d", lw.f.Name, lw.nextLabel)
}

func (lw *lowerer) label(name string) { lw.emit(&ir.Instr{Op: ir.OpLabel, Label: name}) }

func (lw *lowerer) stmtList(stmts []ast.Stmt) error {
	for _, s := range stmts {
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) stmt(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.Block:
		return lw.stmtList(s.Stmts)
	case *ast.VarDecl:
		return lw.varDecl(s)
	case *ast.Assign:
		opened := lw.stmtRegion()
		err := lw.assign(s)
		if opened {
			lw.closeRegion()
		}
		return err
	case *ast.ExprStmt:
		opened := lw.stmtRegion()
		_, err := lw.expr(s.X)
		if opened {
			lw.closeRegion()
		}
		return err
	case *ast.Return:
		opened := lw.stmtRegion()
		defer func() {
			if opened {
				lw.closeRegion()
			}
		}()
		if s.Value == nil {
			lw.emit(&ir.Instr{Op: ir.OpRet})
			return nil
		}
		r, err := lw.expr(s.Value)
		if err != nil {
			return err
		}
		lw.emit(&ir.Instr{Op: ir.OpRet, Src1: r})
		return nil
	case *ast.Break:
		opened := lw.stmtRegion()
		lw.emit(&ir.Instr{Op: ir.OpJump, Label: lw.breakLabels[len(lw.breakLabels)-1]})
		if opened {
			lw.closeRegion()
		}
		return nil
	case *ast.Continue:
		opened := lw.stmtRegion()
		lw.emit(&ir.Instr{Op: ir.OpJump, Label: lw.contLabels[len(lw.contLabels)-1]})
		if opened {
			lw.closeRegion()
		}
		return nil
	case *ast.If:
		return lw.ifStmt(s)
	case *ast.While:
		return lw.whileStmt(s)
	case *ast.For:
		return lw.forStmt(s)
	}
	return fmt.Errorf("lower: unsupported statement %T", s)
}

func (lw *lowerer) varDecl(s *ast.VarDecl) error {
	sym := s.Sym
	if sym.IsArr {
		sym.Addr = lw.localOffset
		lw.localOffset += sym.ArrLen
		return nil
	}
	sym.VReg = int(lw.f.NewReg())
	opened := lw.stmtRegion()
	defer func() {
		if opened {
			lw.closeRegion()
		}
	}()
	dst := ir.Reg(sym.VReg)
	if s.Init == nil {
		// MiniC zero-initializes declared scalars so that programs are
		// deterministic under every allocator.
		if sym.Type == ast.Float {
			lw.emit(&ir.Instr{Op: ir.OpLoadF, FImm: 0, Dst: dst})
		} else {
			lw.emit(&ir.Instr{Op: ir.OpLoadI, Imm: 0, Dst: dst})
		}
		return nil
	}
	// Like assignments: evaluate into a value register, copy into the
	// variable (naive iloc generation).
	val, err := lw.expr(s.Init)
	if err != nil {
		return err
	}
	if val == dst {
		return nil
	}
	lw.emit(&ir.Instr{Op: ir.OpI2I, Src1: val, Dst: dst})
	return nil
}

func (lw *lowerer) assign(s *ast.Assign) error {
	switch lhs := s.LHS.(type) {
	case *ast.Ident:
		sym := lhs.Sym
		if sym.Kind == ast.SymGlobal {
			val, err := lw.expr(s.RHS)
			if err != nil {
				return err
			}
			addr := lw.f.NewReg()
			lw.emit(&ir.Instr{Op: ir.OpLoadI, Imm: sym.Addr, Dst: addr})
			lw.emit(&ir.Instr{Op: ir.OpStore, Src1: val, Src2: addr})
			return nil
		}
		// As in naive iloc generation (and pdgcc's output), the
		// expression value lands in its own virtual register and is
		// copied into the variable's register. Allocators eliminate the
		// copy when both operands receive one physical register — the
		// copy-elimination dynamic §4 of the paper analyzes.
		val, err := lw.expr(s.RHS)
		if err != nil {
			return err
		}
		dst := ir.Reg(sym.VReg)
		if val == dst {
			return nil
		}
		lw.emit(&ir.Instr{Op: ir.OpI2I, Src1: val, Dst: dst})
		return nil
	case *ast.Index:
		val, err := lw.expr(s.RHS)
		if err != nil {
			return err
		}
		if lhs.Sym.Kind == ast.SymGlobal {
			// Global arrays sit at constant addresses, so the store uses
			// iloc's register+immediate addressing mode directly.
			idx, err := lw.expr(lhs.Index)
			if err != nil {
				return err
			}
			lw.emit(&ir.Instr{Op: ir.OpStoreAI, Src1: val, Src2: idx, Imm: lhs.Sym.Addr})
			return nil
		}
		addr, err := lw.elemAddr(lhs)
		if err != nil {
			return err
		}
		lw.emit(&ir.Instr{Op: ir.OpStore, Src1: val, Src2: addr})
		return nil
	}
	return fmt.Errorf("lower: bad assignment target %T", s.LHS)
}

func (lw *lowerer) ifStmt(s *ast.If) error {
	lw.openRegion(ir.RegionStmt)
	defer lw.closeRegion()
	thenL := lw.newLabel()
	endL := lw.newLabel()
	elseL := endL
	if s.Else != nil {
		elseL = lw.newLabel()
	}
	if err := lw.cond(s.Cond, thenL, elseL); err != nil {
		return err
	}
	lw.label(thenL)
	lw.openRegion(ir.RegionThen)
	if err := lw.stmt(s.Then); err != nil {
		return err
	}
	lw.closeRegion()
	if s.Else != nil {
		lw.emit(&ir.Instr{Op: ir.OpJump, Label: endL})
		lw.label(elseL)
		lw.openRegion(ir.RegionElse)
		if err := lw.stmt(s.Else); err != nil {
			return err
		}
		lw.closeRegion()
	}
	lw.label(endL)
	return nil
}

func (lw *lowerer) whileStmt(s *ast.While) error {
	lw.openRegion(ir.RegionLoop)
	defer lw.closeRegion()
	condL := lw.newLabel()
	bodyL := lw.newLabel()
	endL := lw.newLabel()
	lw.label(condL)
	if err := lw.cond(s.Cond, bodyL, endL); err != nil {
		return err
	}
	lw.breakLabels = append(lw.breakLabels, endL)
	lw.contLabels = append(lw.contLabels, condL)
	lw.openRegion(ir.RegionBody)
	lw.label(bodyL)
	if err := lw.stmt(s.Body); err != nil {
		return err
	}
	lw.closeRegion()
	lw.breakLabels = lw.breakLabels[:len(lw.breakLabels)-1]
	lw.contLabels = lw.contLabels[:len(lw.contLabels)-1]
	lw.emit(&ir.Instr{Op: ir.OpJump, Label: condL})
	lw.label(endL)
	return nil
}

func (lw *lowerer) forStmt(s *ast.For) error {
	if s.Init != nil {
		if err := lw.stmt(s.Init); err != nil {
			return err
		}
	}
	lw.openRegion(ir.RegionLoop)
	defer lw.closeRegion()
	condL := lw.newLabel()
	bodyL := lw.newLabel()
	postL := lw.newLabel()
	endL := lw.newLabel()
	lw.label(condL)
	if s.Cond != nil {
		if err := lw.cond(s.Cond, bodyL, endL); err != nil {
			return err
		}
	} else {
		t := lw.f.NewReg()
		lw.emit(&ir.Instr{Op: ir.OpLoadI, Imm: 1, Dst: t})
		lw.emit(&ir.Instr{Op: ir.OpCBr, Src1: t, Label: bodyL, Label2: endL})
	}
	lw.breakLabels = append(lw.breakLabels, endL)
	lw.contLabels = append(lw.contLabels, postL)
	lw.openRegion(ir.RegionBody)
	lw.label(bodyL)
	if err := lw.stmt(s.Body); err != nil {
		return err
	}
	lw.closeRegion()
	lw.breakLabels = lw.breakLabels[:len(lw.breakLabels)-1]
	lw.contLabels = lw.contLabels[:len(lw.contLabels)-1]
	lw.label(postL)
	if s.Post != nil {
		if err := lw.stmt(s.Post); err != nil {
			return err
		}
	}
	lw.emit(&ir.Instr{Op: ir.OpJump, Label: condL})
	lw.label(endL)
	return nil
}

// cond lowers a boolean condition with short-circuiting, branching to
// trueL or falseL.
func (lw *lowerer) cond(e ast.Expr, trueL, falseL string) error {
	switch e := e.(type) {
	case *ast.Binary:
		switch e.Op {
		case token.AndAnd:
			mid := lw.newLabel()
			if err := lw.cond(e.X, mid, falseL); err != nil {
				return err
			}
			lw.label(mid)
			return lw.cond(e.Y, trueL, falseL)
		case token.OrOr:
			mid := lw.newLabel()
			if err := lw.cond(e.X, trueL, mid); err != nil {
				return err
			}
			lw.label(mid)
			return lw.cond(e.Y, trueL, falseL)
		}
	case *ast.Unary:
		if e.Op == token.Not {
			return lw.cond(e.X, falseL, trueL)
		}
	}
	r, err := lw.expr(e)
	if err != nil {
		return err
	}
	lw.emit(&ir.Instr{Op: ir.OpCBr, Src1: r, Label: trueL, Label2: falseL})
	return nil
}

// expr lowers e into a register it chooses (often a variable's own
// register).
func (lw *lowerer) expr(e ast.Expr) (ir.Reg, error) {
	if id, ok := e.(*ast.Ident); ok && id.Sym.Kind != ast.SymGlobal {
		return ir.Reg(id.Sym.VReg), nil
	}
	dst := lw.f.NewReg()
	if err := lw.exprInto(e, dst); err != nil {
		return ir.None, err
	}
	return dst, nil
}

// exprInto lowers e, leaving the value in dst.
func (lw *lowerer) exprInto(e ast.Expr, dst ir.Reg) error {
	switch e := e.(type) {
	case *ast.IntLit:
		lw.emit(&ir.Instr{Op: ir.OpLoadI, Imm: e.Value, Dst: dst})
		return nil
	case *ast.FloatLit:
		lw.emit(&ir.Instr{Op: ir.OpLoadF, FImm: e.Value, Dst: dst})
		return nil
	case *ast.Ident:
		sym := e.Sym
		if sym.Kind == ast.SymGlobal {
			addr := lw.f.NewReg()
			lw.emit(&ir.Instr{Op: ir.OpLoadI, Imm: sym.Addr, Dst: addr})
			lw.emit(&ir.Instr{Op: ir.OpLoad, Src1: addr, Dst: dst})
			return nil
		}
		lw.emit(&ir.Instr{Op: ir.OpI2I, Src1: ir.Reg(sym.VReg), Dst: dst})
		return nil
	case *ast.Index:
		if e.Sym.Kind == ast.SymGlobal {
			idx, err := lw.expr(e.Index)
			if err != nil {
				return err
			}
			lw.emit(&ir.Instr{Op: ir.OpLoadAI, Src1: idx, Imm: e.Sym.Addr, Dst: dst})
			return nil
		}
		addr, err := lw.elemAddr(e)
		if err != nil {
			return err
		}
		lw.emit(&ir.Instr{Op: ir.OpLoad, Src1: addr, Dst: dst})
		return nil
	case *ast.Unary:
		src, err := lw.expr(e.X)
		if err != nil {
			return err
		}
		var op ir.Op
		switch {
		case e.Op == token.Not:
			op = ir.OpNot
		case e.TypeOf() == ast.Float:
			op = ir.OpFNeg
		default:
			op = ir.OpNeg
		}
		lw.emit(&ir.Instr{Op: op, Src1: src, Dst: dst})
		return nil
	case *ast.Cast:
		src, err := lw.expr(e.X)
		if err != nil {
			return err
		}
		if e.TypeOf() == ast.Float {
			lw.emit(&ir.Instr{Op: ir.OpI2F, Src1: src, Dst: dst})
		} else {
			lw.emit(&ir.Instr{Op: ir.OpF2I, Src1: src, Dst: dst})
		}
		return nil
	case *ast.Binary:
		return lw.binary(e, dst)
	case *ast.Call:
		return lw.call(e, dst)
	}
	return fmt.Errorf("lower: unsupported expression %T", e)
}

func (lw *lowerer) binary(e *ast.Binary, dst ir.Reg) error {
	switch e.Op {
	case token.AndAnd, token.OrOr:
		// Value context: materialize 0/1 with short-circuit control flow.
		trueL, falseL, endL := lw.newLabel(), lw.newLabel(), lw.newLabel()
		if err := lw.cond(e, trueL, falseL); err != nil {
			return err
		}
		lw.label(trueL)
		lw.emit(&ir.Instr{Op: ir.OpLoadI, Imm: 1, Dst: dst})
		lw.emit(&ir.Instr{Op: ir.OpJump, Label: endL})
		lw.label(falseL)
		lw.emit(&ir.Instr{Op: ir.OpLoadI, Imm: 0, Dst: dst})
		lw.label(endL)
		return nil
	}
	x, err := lw.expr(e.X)
	if err != nil {
		return err
	}
	y, err := lw.expr(e.Y)
	if err != nil {
		return err
	}
	isFloat := e.X.TypeOf() == ast.Float
	var op ir.Op
	switch e.Op {
	case token.Plus:
		op = ir.OpAdd
		if isFloat {
			op = ir.OpFAdd
		}
	case token.Minus:
		op = ir.OpSub
		if isFloat {
			op = ir.OpFSub
		}
	case token.Star:
		op = ir.OpMult
		if isFloat {
			op = ir.OpFMult
		}
	case token.Slash:
		op = ir.OpDiv
		if isFloat {
			op = ir.OpFDiv
		}
	case token.Percent:
		op = ir.OpMod
	case token.Lt:
		op = ir.OpCmpLT
		if isFloat {
			op = ir.OpFCmpLT
		}
	case token.Le:
		op = ir.OpCmpLE
		if isFloat {
			op = ir.OpFCmpLE
		}
	case token.Gt:
		op = ir.OpCmpGT
		if isFloat {
			op = ir.OpFCmpGT
		}
	case token.Ge:
		op = ir.OpCmpGE
		if isFloat {
			op = ir.OpFCmpGE
		}
	case token.EqEq:
		op = ir.OpCmpEQ
		if isFloat {
			op = ir.OpFCmpEQ
		}
	case token.NotEq:
		op = ir.OpCmpNE
		if isFloat {
			op = ir.OpFCmpNE
		}
	default:
		return fmt.Errorf("lower: unsupported binary op %s", e.Op)
	}
	lw.emit(&ir.Instr{Op: op, Src1: x, Src2: y, Dst: dst})
	return nil
}

func (lw *lowerer) call(e *ast.Call, dst ir.Reg) error {
	if e.Name == "print" {
		arg, err := lw.expr(e.Args[0])
		if err != nil {
			return err
		}
		op := ir.OpPrint
		if e.Args[0].TypeOf() == ast.Float {
			op = ir.OpFPrint
		}
		lw.emit(&ir.Instr{Op: op, Src1: arg})
		return nil
	}
	// Arguments are staged one at a time (memory-style passing, as a
	// load/store architecture's calling convention would), so a call
	// never forces all arguments to be live in registers simultaneously.
	for _, a := range e.Args {
		r, err := lw.expr(a)
		if err != nil {
			return err
		}
		lw.emit(&ir.Instr{Op: ir.OpArg, Src1: r})
	}
	in := &ir.Instr{Op: ir.OpCall, Callee: e.Name}
	if e.TypeOf() != ast.Void {
		in.Dst = dst
	}
	lw.emit(in)
	return nil
}

// elemAddr computes the address of an array element into a fresh register.
func (lw *lowerer) elemAddr(e *ast.Index) (ir.Reg, error) {
	idx, err := lw.expr(e.Index)
	if err != nil {
		return ir.None, err
	}
	base := lw.f.NewReg()
	sym := e.Sym
	if sym.Kind == ast.SymGlobal {
		lw.emit(&ir.Instr{Op: ir.OpLoadI, Imm: sym.Addr, Dst: base})
	} else {
		lw.emit(&ir.Instr{Op: ir.OpLea, Imm: sym.Addr, Dst: base})
	}
	addr := lw.f.NewReg()
	lw.emit(&ir.Instr{Op: ir.OpAdd, Src1: base, Src2: idx, Dst: addr})
	return addr, nil
}
