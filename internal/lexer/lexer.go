// Package lexer implements a hand-written scanner for MiniC source text.
package lexer

import (
	"fmt"

	"repro/internal/token"
)

// Lexer scans MiniC source text into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []error
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors reports all scanning errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipSpace consumes whitespace and comments (// and /* */).
func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token, or an EOF token at end of input.
func (l *Lexer) Next() token.Token {
	l.skipSpace()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if kw, ok := token.Keywords[text]; ok {
			return token.Token{Kind: kw, Text: text, Pos: pos}
		}
		return token.Token{Kind: token.IDENT, Text: text, Pos: pos}
	case isDigit(c):
		start := l.off
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		kind := token.INT
		if l.peek() == '.' && isDigit(l.peek2()) {
			kind = token.FLOAT
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			save := l.off
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			if isDigit(l.peek()) {
				kind = token.FLOAT
				for l.off < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			} else {
				// Not an exponent after all; rewind.
				l.off = save
			}
		}
		return token.Token{Kind: kind, Text: l.src[start:l.off], Pos: pos}
	}
	l.advance()
	two := func(second byte, with, without token.Kind) token.Token {
		if l.peek() == second {
			l.advance()
			return token.Token{Kind: with, Text: string(c) + string(second), Pos: pos}
		}
		return token.Token{Kind: without, Text: string(c), Pos: pos}
	}
	switch c {
	case '(':
		return token.Token{Kind: token.LParen, Text: "(", Pos: pos}
	case ')':
		return token.Token{Kind: token.RParen, Text: ")", Pos: pos}
	case '{':
		return token.Token{Kind: token.LBrace, Text: "{", Pos: pos}
	case '}':
		return token.Token{Kind: token.RBrace, Text: "}", Pos: pos}
	case '[':
		return token.Token{Kind: token.LBracket, Text: "[", Pos: pos}
	case ']':
		return token.Token{Kind: token.RBracket, Text: "]", Pos: pos}
	case ',':
		return token.Token{Kind: token.Comma, Text: ",", Pos: pos}
	case ';':
		return token.Token{Kind: token.Semi, Text: ";", Pos: pos}
	case '+':
		return token.Token{Kind: token.Plus, Text: "+", Pos: pos}
	case '-':
		return token.Token{Kind: token.Minus, Text: "-", Pos: pos}
	case '*':
		return token.Token{Kind: token.Star, Text: "*", Pos: pos}
	case '/':
		return token.Token{Kind: token.Slash, Text: "/", Pos: pos}
	case '%':
		return token.Token{Kind: token.Percent, Text: "%", Pos: pos}
	case '=':
		return two('=', token.EqEq, token.Assign)
	case '!':
		return two('=', token.NotEq, token.Not)
	case '<':
		return two('=', token.Le, token.Lt)
	case '>':
		return two('=', token.Ge, token.Gt)
	case '&':
		if l.peek() == '&' {
			l.advance()
			return token.Token{Kind: token.AndAnd, Text: "&&", Pos: pos}
		}
	case '|':
		if l.peek() == '|' {
			l.advance()
			return token.Token{Kind: token.OrOr, Text: "||", Pos: pos}
		}
	}
	l.errorf(pos, "illegal character %q", c)
	return token.Token{Kind: token.ILLEGAL, Text: string(c), Pos: pos}
}
