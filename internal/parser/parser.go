// Package parser implements a recursive-descent parser for MiniC.
package parser

import (
	"fmt"
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/token"
)

// MaxDepth bounds how deeply a program may nest. Each nested statement,
// parenthesized expression, unary operand, index and call argument adds
// a level, and so does each operator of a chain such as 0+1+1+…, whose
// tree nests one level per operator. The parser and the passes after it
// recurse over that tree, and a Go stack overflow is fatal to the whole
// process, so a deeper program is a parse error instead. The deepest
// Table 1 or extended-suite program nests 18 levels (livermore), and
// the deepest of 30,000 randprog.DefaultConfig programs 137.
const MaxDepth = 1000

// Parser parses a MiniC translation unit.
type Parser struct {
	// lx supplies the tokens as the parser asks for them; tok is the
	// current token and ahead the one after it.
	lx         *lexer.Lexer
	tok, ahead token.Token
	errs       []error
	// depth is the nesting level of the construct being parsed.
	depth int
}

// Parse parses src and returns the program. It returns an error describing
// the first problem if the source is malformed: the first lexical error
// anywhere in src, or else the first parse error.
func Parse(src string) (*ast.Program, error) {
	lx := lexer.New(src)
	p := &Parser{lx: lx}
	p.tok, p.ahead = lx.Next(), lx.Next()
	prog := p.parseProgram()
	// The parser stops at its first error, so the rest of the source is
	// scanned here for a lexical error, which takes precedence.
	for p.ahead.Kind != token.EOF {
		p.ahead = lx.Next()
	}
	if errs := lx.Errors(); len(errs) > 0 {
		return nil, errs[0]
	}
	if len(p.errs) > 0 {
		return nil, p.errs[0]
	}
	return prog, nil
}

func (p *Parser) cur() token.Token  { return p.tok }
func (p *Parser) peek() token.Token { return p.ahead }

// next consumes the current token and returns it. At the end of input
// the current token stays EOF.
func (p *Parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok = p.ahead
		if p.ahead.Kind != token.EOF {
			p.ahead = p.lx.Next()
		}
	}
	return t
}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.cur().Kind != k {
		p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
		// Do not consume; let the caller's structure recover.
		return token.Token{Kind: k, Pos: p.cur().Pos}
	}
	return p.next()
}

// fits reports whether a construct that nests h levels below the
// current one stays within MaxDepth, recording an error if it does not.
func (p *Parser) fits(pos token.Pos, h int) bool {
	if p.depth+h <= MaxDepth {
		return true
	}
	p.errorf(pos, "program nests deeper than %d levels", MaxDepth)
	return false
}

func (p *Parser) accept(k token.Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func isTypeKw(k token.Kind) bool {
	return k == token.KWInt || k == token.KWFloat || k == token.KWVoid
}

func typeOf(k token.Kind) ast.Type {
	switch k {
	case token.KWInt:
		return ast.Int
	case token.KWFloat:
		return ast.Float
	}
	return ast.Void
}

func (p *Parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for p.cur().Kind != token.EOF {
		if len(p.errs) > 0 {
			break
		}
		if !isTypeKw(p.cur().Kind) {
			p.errorf(p.cur().Pos, "expected declaration, found %s", p.cur())
			break
		}
		tt := p.next()
		name := p.expect(token.IDENT)
		if p.cur().Kind == token.LParen {
			prog.Funcs = append(prog.Funcs, p.parseFunc(typeOf(tt.Kind), name))
		} else {
			prog.Globals = append(prog.Globals, p.parseVarRest(typeOf(tt.Kind), tt.Pos, name))
		}
	}
	return prog
}

// parseVarRest parses the remainder of a variable declaration after the
// type keyword and name have been consumed.
func (p *Parser) parseVarRest(t ast.Type, pos token.Pos, name token.Token) *ast.VarDecl {
	d := &ast.VarDecl{Name: name.Text, Type: t}
	d.P = pos
	if t == ast.Void {
		p.errorf(pos, "variable %s cannot have type void", name.Text)
	}
	if p.accept(token.LBracket) {
		d.IsArr = true
		sz := p.expect(token.INT)
		n, err := strconv.ParseInt(sz.Text, 10, 64)
		if err != nil || n <= 0 {
			p.errorf(sz.Pos, "invalid array length %q", sz.Text)
			n = 1
		}
		d.ArrLen = n
		p.expect(token.RBracket)
	} else if p.accept(token.Assign) {
		d.Init = p.parseExpr()
	}
	p.expect(token.Semi)
	return d
}

func (p *Parser) parseFunc(ret ast.Type, name token.Token) *ast.FuncDecl {
	f := &ast.FuncDecl{Name: name.Text, Ret: ret, P: name.Pos}
	p.expect(token.LParen)
	if p.cur().Kind != token.RParen {
		for {
			if !isTypeKw(p.cur().Kind) || p.cur().Kind == token.KWVoid {
				if p.cur().Kind == token.KWVoid && p.peek().Kind == token.RParen && len(f.Params) == 0 {
					p.next() // f(void)
					break
				}
				p.errorf(p.cur().Pos, "expected parameter type, found %s", p.cur())
				break
			}
			tt := p.next()
			pn := p.expect(token.IDENT)
			f.Params = append(f.Params, ast.Param{Name: pn.Text, Type: typeOf(tt.Kind), Pos: pn.Pos})
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.RParen)
	f.Body = p.parseBlock()
	return f
}

func (p *Parser) parseBlock() *ast.Block {
	b := &ast.Block{}
	b.P = p.cur().Pos
	p.expect(token.LBrace)
	for p.cur().Kind != token.RBrace && p.cur().Kind != token.EOF && len(p.errs) == 0 {
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	p.expect(token.RBrace)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	t := p.cur()
	if !p.fits(t.Pos, 1) {
		return &ast.Block{}
	}
	p.depth++
	defer func() { p.depth-- }()
	switch t.Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.KWInt, token.KWFloat:
		tt := p.next()
		name := p.expect(token.IDENT)
		return p.parseVarRest(typeOf(tt.Kind), tt.Pos, name)
	case token.KWIf:
		p.next()
		s := &ast.If{}
		s.P = t.Pos
		p.expect(token.LParen)
		s.Cond = p.parseExpr()
		p.expect(token.RParen)
		s.Then = p.parseStmt()
		if p.accept(token.KWElse) {
			s.Else = p.parseStmt()
		}
		return s
	case token.KWWhile:
		p.next()
		s := &ast.While{}
		s.P = t.Pos
		p.expect(token.LParen)
		s.Cond = p.parseExpr()
		p.expect(token.RParen)
		s.Body = p.parseStmt()
		return s
	case token.KWFor:
		p.next()
		s := &ast.For{}
		s.P = t.Pos
		p.expect(token.LParen)
		if p.cur().Kind != token.Semi {
			s.Init = p.parseSimple()
		}
		p.expect(token.Semi)
		if p.cur().Kind != token.Semi {
			s.Cond = p.parseExpr()
		}
		p.expect(token.Semi)
		if p.cur().Kind != token.RParen {
			s.Post = p.parseSimple()
		}
		p.expect(token.RParen)
		s.Body = p.parseStmt()
		return s
	case token.KWReturn:
		p.next()
		s := &ast.Return{}
		s.P = t.Pos
		if p.cur().Kind != token.Semi {
			s.Value = p.parseExpr()
		}
		p.expect(token.Semi)
		return s
	case token.KWBreak:
		p.next()
		s := &ast.Break{}
		s.P = t.Pos
		p.expect(token.Semi)
		return s
	case token.KWContinue:
		p.next()
		s := &ast.Continue{}
		s.P = t.Pos
		p.expect(token.Semi)
		return s
	default:
		s := p.parseSimple()
		p.expect(token.Semi)
		return s
	}
}

// parseSimple parses an assignment or expression statement (no semicolon).
func (p *Parser) parseSimple() ast.Stmt {
	pos := p.cur().Pos
	e := p.parseExpr()
	if p.accept(token.Assign) {
		switch e.(type) {
		case *ast.Ident, *ast.Index:
		default:
			p.errorf(pos, "invalid assignment target")
		}
		s := &ast.Assign{LHS: e, RHS: p.parseExpr()}
		s.P = pos
		return s
	}
	s := &ast.ExprStmt{X: e}
	s.P = pos
	return s
}

// Expression grammar, lowest to highest precedence:
//
//	orExpr   := andExpr ( "||" andExpr )*
//	andExpr  := cmpExpr ( "&&" cmpExpr )*
//	cmpExpr  := addExpr ( ( == != < <= > >= ) addExpr )?
//	addExpr  := mulExpr ( ( + - ) mulExpr )*
//	mulExpr  := unary   ( ( * / % ) unary )*
//	unary    := ( - ! ) unary | primary
//	primary  := literal | ident | ident "[" expr "]" | ident "(" args ")" | "(" expr ")"
//
// Each function below also returns the height of the expression it
// parsed: how many levels it nests below its own (0 for a literal or a
// name).
func (p *Parser) parseExpr() ast.Expr {
	e, _ := p.parseOr()
	return e
}

// nested parses a subexpression one level down with parse, unless that
// level would pass MaxDepth: then it records an error and returns a
// placeholder without descending.
func (p *Parser) nested(pos token.Pos, parse func() (ast.Expr, int)) (ast.Expr, int) {
	if !p.fits(pos, 1) {
		return placeholder(pos), 0
	}
	p.depth++
	e, h := parse()
	p.depth--
	return e, h + 1
}

// placeholder stands in for an expression the parser could not build.
func placeholder(pos token.Pos) ast.Expr {
	e := &ast.IntLit{Value: 0}
	e.P = pos
	return e
}

// binary folds one operator into a left-associative chain, reporting
// false when the chain now nests deeper than MaxDepth.
func (p *Parser) binary(op token.Token, x ast.Expr, hx int, y ast.Expr, hy int) (ast.Expr, int, bool) {
	e := &ast.Binary{Op: op.Kind, X: x, Y: y}
	e.P = op.Pos
	h := max(hx, hy) + 1
	return e, h, p.fits(op.Pos, h)
}

func (p *Parser) parseOr() (ast.Expr, int) {
	x, h := p.parseAnd()
	for ok := true; ok && p.cur().Kind == token.OrOr; {
		op := p.next()
		y, hy := p.parseAnd()
		x, h, ok = p.binary(op, x, h, y, hy)
	}
	return x, h
}

func (p *Parser) parseAnd() (ast.Expr, int) {
	x, h := p.parseCmp()
	for ok := true; ok && p.cur().Kind == token.AndAnd; {
		op := p.next()
		y, hy := p.parseCmp()
		x, h, ok = p.binary(op, x, h, y, hy)
	}
	return x, h
}

func (p *Parser) parseCmp() (ast.Expr, int) {
	x, h := p.parseAdd()
	switch p.cur().Kind {
	case token.EqEq, token.NotEq, token.Lt, token.Le, token.Gt, token.Ge:
		op := p.next()
		y, hy := p.parseAdd()
		x, h, _ = p.binary(op, x, h, y, hy)
	}
	return x, h
}

func (p *Parser) parseAdd() (ast.Expr, int) {
	x, h := p.parseMul()
	for ok := true; ok && (p.cur().Kind == token.Plus || p.cur().Kind == token.Minus); {
		op := p.next()
		y, hy := p.parseMul()
		x, h, ok = p.binary(op, x, h, y, hy)
	}
	return x, h
}

func (p *Parser) parseMul() (ast.Expr, int) {
	x, h := p.parseUnary()
	for ok := true; ok && (p.cur().Kind == token.Star || p.cur().Kind == token.Slash || p.cur().Kind == token.Percent); {
		op := p.next()
		y, hy := p.parseUnary()
		x, h, ok = p.binary(op, x, h, y, hy)
	}
	return x, h
}

func (p *Parser) parseUnary() (ast.Expr, int) {
	t := p.cur()
	if t.Kind == token.Minus || t.Kind == token.Not {
		p.next()
		x, h := p.nested(t.Pos, p.parseUnary)
		e := &ast.Unary{Op: t.Kind, X: x}
		e.P = t.Pos
		return e, h
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (ast.Expr, int) {
	t := p.cur()
	switch t.Kind {
	case token.INT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q", t.Text)
		}
		e := &ast.IntLit{Value: v}
		e.P = t.Pos
		return e, 0
	case token.FLOAT:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid float literal %q", t.Text)
		}
		e := &ast.FloatLit{Value: v}
		e.P = t.Pos
		return e, 0
	case token.IDENT:
		p.next()
		switch p.cur().Kind {
		case token.LBracket:
			p.next()
			idx, h := p.nested(t.Pos, p.parseOr)
			p.expect(token.RBracket)
			e := &ast.Index{Name: t.Text, Index: idx}
			e.P = t.Pos
			return e, h
		case token.LParen:
			p.next()
			e := &ast.Call{Name: t.Text}
			e.P = t.Pos
			h := 0
			if p.cur().Kind != token.RParen {
				for {
					arg, ha := p.nested(t.Pos, p.parseOr)
					e.Args = append(e.Args, arg)
					h = max(h, ha)
					if !p.accept(token.Comma) {
						break
					}
				}
			}
			p.expect(token.RParen)
			return e, h
		default:
			e := &ast.Ident{Name: t.Text}
			e.P = t.Pos
			return e, 0
		}
	case token.LParen:
		p.next()
		e, h := p.nested(t.Pos, p.parseOr)
		p.expect(token.RParen)
		return e, h
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.next()
	return placeholder(t.Pos), 0
}
