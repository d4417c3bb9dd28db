package parser_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p
}

func TestDeclarations(t *testing.T) {
	p := parse(t, `
int g = 3;
float farr[16];
int a[8];
void f(int x, float y) {}
int main() { return 0; }
`)
	if len(p.Globals) != 3 || len(p.Funcs) != 2 {
		t.Fatalf("got %d globals, %d funcs", len(p.Globals), len(p.Funcs))
	}
	if !p.Globals[1].IsArr || p.Globals[1].ArrLen != 16 || p.Globals[1].Type != ast.Float {
		t.Errorf("farr parsed wrong: %+v", p.Globals[1])
	}
	f := p.Func("f")
	if f == nil || len(f.Params) != 2 || f.Params[1].Type != ast.Float || f.Ret != ast.Void {
		t.Errorf("f parsed wrong: %+v", f)
	}
	if p.Func("main").Ret != ast.Int {
		t.Error("main should return int")
	}
}

func TestPrecedence(t *testing.T) {
	p := parse(t, `int main() { int x = 1 + 2 * 3 - 4 / 2; return x; }`)
	decl := p.Func("main").Body.Stmts[0].(*ast.VarDecl)
	// ((1 + (2*3)) - (4/2))
	if got := ast.ExprString(decl.Init); got != "((1 + (2 * 3)) - (4 / 2))" {
		t.Errorf("precedence wrong: %s", got)
	}
	p = parse(t, `int main() { int x = 1 < 2 && 3 > 4 || 5 == 6; return x; }`)
	decl = p.Func("main").Body.Stmts[0].(*ast.VarDecl)
	if got := ast.ExprString(decl.Init); got != "(((1 < 2) && (3 > 4)) || (5 == 6))" {
		t.Errorf("logical precedence wrong: %s", got)
	}
	p = parse(t, `int main() { int x = -2 * 3; return x; }`)
	decl = p.Func("main").Body.Stmts[0].(*ast.VarDecl)
	if got := ast.ExprString(decl.Init); got != "(-2 * 3)" {
		t.Errorf("unary precedence wrong: %s", got)
	}
}

func TestStatements(t *testing.T) {
	p := parse(t, `
int main() {
	int i;
	for (i = 0; i < 10; i = i + 1) {
		if (i == 3) { continue; } else { i = i + 1; }
		while (i > 100) { break; }
	}
	f();
	return i;
}
void f() {}
`)
	body := p.Func("main").Body.Stmts
	if _, ok := body[1].(*ast.For); !ok {
		t.Errorf("expected For, got %T", body[1])
	}
	if _, ok := body[2].(*ast.ExprStmt); !ok {
		t.Errorf("expected ExprStmt, got %T", body[2])
	}
	if _, ok := body[3].(*ast.Return); !ok {
		t.Errorf("expected Return, got %T", body[3])
	}
}

func TestForVariants(t *testing.T) {
	p := parse(t, `int main() { for (;;) { break; } return 0; }`)
	f := p.Func("main").Body.Stmts[0].(*ast.For)
	if f.Init != nil || f.Cond != nil || f.Post != nil {
		t.Error("empty for clauses should be nil")
	}
}

func TestDanglingElse(t *testing.T) {
	p := parse(t, `int main() { if (1) if (2) return 1; else return 2; return 3; }`)
	outer := p.Func("main").Body.Stmts[0].(*ast.If)
	if outer.Else != nil {
		t.Error("else should bind to the inner if")
	}
	inner := outer.Then.(*ast.If)
	if inner.Else == nil {
		t.Error("inner if lost its else")
	}
}

func TestVoidParamList(t *testing.T) {
	p := parse(t, `int f(void) { return 1; } int main() { return f(); }`)
	if len(p.Func("f").Params) != 0 {
		t.Error("f(void) should have no parameters")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`int main() { return 0 }`,     // missing semicolon
		`int main() { int x = ; }`,    // missing expr
		`int main( { return 0; }`,     // bad params
		`int main() { 1 + 2 = 3; }`,   // bad assignment target
		`int a[0]; int main() {}`,     // zero-length array
		`int a[-1]; int main() {}`,    // negative length
		`void v; int main() {}`,       // void variable
		`int main() { if 1 return; }`, // missing parens
		`bogus main() { }`,            // unknown type
		`int main() { x ++; }`,        // unsupported operator
	}
	for _, src := range bad {
		if _, err := parser.Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestCallsAndIndexing(t *testing.T) {
	p := parse(t, `
int a[4];
int f(int x) { return x; }
int main() { return f(a[f(2) + 1]); }
`)
	ret := p.Func("main").Body.Stmts[0].(*ast.Return)
	s := ast.ExprString(ret.Value)
	if s != "f(a[(f(2) + 1)])" {
		t.Errorf("nested call/index parsed as %s", s)
	}
}

func TestPrintedProgramReparses(t *testing.T) {
	src := `
float w[8];
int gcd(int a, int b) {
	while (b != 0) {
		int t = b;
		b = a % b;
		a = t;
	}
	return a;
}
int main() {
	print(gcd(48, 18));
	return 0;
}`
	p1 := parse(t, src)
	text := ast.Print(p1)
	p2, err := parser.Parse(text)
	if err != nil {
		t.Fatalf("printed program does not reparse: %v\n%s", err, text)
	}
	if got := ast.Print(p2); got != text {
		t.Errorf("print/parse not a fixed point:\n%s\n---\n%s", text, got)
	}
	if !strings.Contains(text, "while ((b != 0))") && !strings.Contains(text, "while (b != 0)") {
		t.Errorf("printed program looks wrong:\n%s", text)
	}
}

// nestingShapes builds a program that nests n levels deep through one
// construct: parentheses, each operator of a left-associative chain,
// unary operators, indexing, call arguments or statements.
var nestingShapes = map[string]func(n int) string{
	"parentheses": func(n int) string {
		return "int x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";"
	},
	"chain": func(n int) string { return "int x = 0" + strings.Repeat("+1", n) + ";" },
	"unary": func(n int) string { return "int x = " + strings.Repeat("-", n) + "1;" },
	"index": func(n int) string {
		return "int x = " + strings.Repeat("a[", n) + "0" + strings.Repeat("]", n) + ";"
	},
	"call": func(n int) string {
		return "int x = " + strings.Repeat("f(1, ", n) + "0" + strings.Repeat(")", n) + ";"
	},
	"statements": func(n int) string {
		return "void f() {" + strings.Repeat("{", n) + strings.Repeat("}", n) + "}"
	},
}

// TestNestingDepthBound: a program may nest MaxDepth levels and no more,
// whichever construct nests. An input a hundred times deeper fails the
// same way, without the parser recursing past the bound.
func TestNestingDepthBound(t *testing.T) {
	for name, shape := range nestingShapes {
		if _, err := parser.Parse(shape(parser.MaxDepth)); err != nil {
			t.Errorf("%s: %d levels: %v", name, parser.MaxDepth, err)
		}
		for _, n := range []int{parser.MaxDepth + 1, 100 * parser.MaxDepth} {
			_, err := parser.Parse(shape(n))
			if err == nil || !strings.Contains(err.Error(), "nests deeper than") {
				t.Errorf("%s: %d levels: err = %v, want the nesting bound", name, n, err)
			}
		}
	}
}

// TestDeepInputAllocatesLittle: the parser pulls tokens from the lexer
// as it goes, so rejecting 1.5M nested parentheses (3 MB of source,
// which as a token slice would take about 60 MB) allocates little.
func TestDeepInputAllocatesLittle(t *testing.T) {
	const n = 1_500_000
	src := "int main() { return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := parser.Parse(src)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "nests deeper than") {
		t.Fatalf("err = %v, want the nesting bound", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("parsing allocated %d bytes, want under 16 MB", grew)
	}
}

// TestLexicalErrorWins: a lexical error anywhere in the source is the
// error Parse returns, even after the parser stopped at an earlier
// parse error.
func TestLexicalErrorWins(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"int main() { return 0 }\nint g; $", "2:8: illegal character '$'"},
		{"int main() { return " + strings.Repeat("(", 2000) + "1 & 2", "1:2023: illegal character '&'"},
		{"int main() { return 0; } /* open", "1:26: unterminated block comment"},
	} {
		_, err := parser.Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%.40q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}
