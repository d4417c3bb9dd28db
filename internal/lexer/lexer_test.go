package lexer_test

import (
	"testing"

	"repro/internal/lexer"
	"repro/internal/token"
)

// all scans the rest of lx's input and returns every token up to and
// including EOF.
func all(lx *lexer.Lexer) []token.Token {
	var toks []token.Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func kinds(src string) []token.Kind {
	var out []token.Kind
	for _, t := range all(lexer.New(src)) {
		out = append(out, t.Kind)
	}
	return out
}

func TestTokens(t *testing.T) {
	src := `int x = 42; float y = 1.5e3;
// line comment
/* block
   comment */
if (x <= y && y != 0 || !x) { x = x % 2; } else { while (x >= 1) { break; } }
for (;;) { continue; }
a[3] = f(1, 2);
return;`
	want := []token.Kind{
		token.KWInt, token.IDENT, token.Assign, token.INT, token.Semi,
		token.KWFloat, token.IDENT, token.Assign, token.FLOAT, token.Semi,
		token.KWIf, token.LParen, token.IDENT, token.Le, token.IDENT,
		token.AndAnd, token.IDENT, token.NotEq, token.INT, token.OrOr,
		token.Not, token.IDENT, token.RParen, token.LBrace, token.IDENT,
		token.Assign, token.IDENT, token.Percent, token.INT, token.Semi,
		token.RBrace, token.KWElse, token.LBrace, token.KWWhile,
		token.LParen, token.IDENT, token.Ge, token.INT, token.RParen,
		token.LBrace, token.KWBreak, token.Semi, token.RBrace, token.RBrace,
		token.KWFor, token.LParen, token.Semi, token.Semi, token.RParen,
		token.LBrace, token.KWContinue, token.Semi, token.RBrace,
		token.IDENT, token.LBracket, token.INT, token.RBracket, token.Assign,
		token.IDENT, token.LParen, token.INT, token.Comma, token.INT,
		token.RParen, token.Semi,
		token.KWReturn, token.Semi,
		token.EOF,
	}
	got := kinds(src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]token.Kind{
		"0":      token.INT,
		"123":    token.INT,
		"1.5":    token.FLOAT,
		"0.001":  token.FLOAT,
		"2e10":   token.FLOAT,
		"3.5e-2": token.FLOAT,
		"7E+3":   token.FLOAT,
	}
	for src, want := range cases {
		lx := lexer.New(src)
		tok := lx.Next()
		if tok.Kind != want || tok.Text != src {
			t.Errorf("%q -> %v %q, want %v", src, tok.Kind, tok.Text, want)
		}
	}
	// "1.foo" must lex as INT then something else, not FLOAT.
	lx := lexer.New("1.foo")
	if tok := lx.Next(); tok.Kind != token.INT {
		t.Errorf("1.foo should start with INT, got %v", tok)
	}
	// "2e" (no exponent digits) is INT followed by IDENT.
	lx = lexer.New("2e")
	if tok := lx.Next(); tok.Kind != token.INT || tok.Text != "2" {
		t.Errorf("2e should lex as INT 2, got %v", tok)
	}
	if tok := lx.Next(); tok.Kind != token.IDENT || tok.Text != "e" {
		t.Errorf("expected trailing IDENT e, got %v", tok)
	}
}

func TestPositions(t *testing.T) {
	lx := lexer.New("a\n  bb\n")
	t1 := lx.Next()
	t2 := lx.Next()
	if t1.Pos.Line != 1 || t1.Pos.Col != 1 {
		t.Errorf("a at %v", t1.Pos)
	}
	if t2.Pos.Line != 2 || t2.Pos.Col != 3 {
		t.Errorf("bb at %v", t2.Pos)
	}
}

func TestErrors(t *testing.T) {
	lx := lexer.New("a $ b")
	for tok := lx.Next(); tok.Kind != token.EOF; tok = lx.Next() {
	}
	if len(lx.Errors()) == 0 {
		t.Error("expected an error for $")
	}
	lx = lexer.New("/* unterminated")
	all(lx)
	if len(lx.Errors()) == 0 {
		t.Error("expected an error for unterminated comment")
	}
	lx = lexer.New("a & b")
	var illegal bool
	for _, tok := range all(lx) {
		if tok.Kind == token.ILLEGAL {
			illegal = true
		}
	}
	if !illegal {
		t.Error("single & should be illegal")
	}
}

func TestKeywordsVsIdents(t *testing.T) {
	lx := lexer.New("iff whilex returns int_ for_")
	for _, tok := range all(lx) {
		if tok.Kind != token.IDENT && tok.Kind != token.EOF {
			t.Errorf("%q lexed as %v, want identifier", tok.Text, tok.Kind)
		}
	}
}
