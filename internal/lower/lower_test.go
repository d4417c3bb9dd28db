package lower_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
)

// compile parses, checks, and lowers src.
func compile(t *testing.T, src string, opts lower.Options) *ir.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sem.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := lower.Lower(prog, opts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// run compiles and interprets src with virtual registers.
func run(t *testing.T, src string) *interp.Result {
	t.Helper()
	p := compile(t, src, lower.Options{})
	res, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
int main() {
	int a = 6;
	int b = 7;
	print(a * b);
	print(a - b);
	print(100 / 7);
	print(100 % 7);
	print(-a);
	return 0;
}`)
	want := []string{"42", "-1", "14", "2", "-6"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestFloatArithmetic(t *testing.T) {
	res := run(t, `
int main() {
	float x = 1.5;
	float y = 2.0;
	print(x * y);
	print(x / y);
	int i = 3;
	float z = x + i;
	print(z)	;
	return 0;
}`)
	want := []string{"3", "0.75", "4.5"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestControlFlow(t *testing.T) {
	res := run(t, `
int main() {
	int i;
	int sum = 0;
	for (i = 1; i <= 10; i = i + 1) {
		if (i % 2 == 0) {
			sum = sum + i;
		}
	}
	print(sum);
	int n = 0;
	while (n < 3) {
		print(n);
		n = n + 1;
	}
	return 0;
}`)
	want := []string{"30", "0", "1", "2"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestBreakContinue(t *testing.T) {
	res := run(t, `
int main() {
	int i = 0;
	while (1) {
		i = i + 1;
		if (i == 3) { continue; }
		if (i > 5) { break; }
		print(i);
	}
	return 0;
}`)
	want := []string{"1", "2", "4", "5"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestShortCircuit(t *testing.T) {
	res := run(t, `
int g = 0;
int bump() { g = g + 1; return 1; }
int main() {
	if (0 && bump()) { print(111); }
	if (1 || bump()) { print(222); }
	print(g);
	int v = 1 && 0;
	print(v);
	v = 0 || 3;
	print(v);
	return 0;
}`)
	want := []string{"222", "0", "0", "1"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestArraysAndGlobals(t *testing.T) {
	res := run(t, `
int a[10];
int gscalar = 5;
int main() {
	int i;
	for (i = 0; i < 10; i = i + 1) {
		a[i] = i * i;
	}
	print(a[7]);
	int local[4];
	local[0] = gscalar;
	local[1] = local[0] + 1;
	print(local[1]);
	gscalar = gscalar + a[2];
	print(gscalar);
	return 0;
}`)
	want := []string{"49", "6", "9"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestRecursion(t *testing.T) {
	res := run(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() {
	print(fib(12));
	return 0;
}`)
	want := []string{"144"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
	if res.PerFunc["fib"] == nil || res.PerFunc["fib"].Cycles == 0 {
		t.Errorf("expected per-function stats for fib, got %+v", res.PerFunc)
	}
}

func TestRegionTreeInvariants(t *testing.T) {
	p := compile(t, `
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 4; i = i + 1) {
		if (i % 2 == 0) {
			s = s + i;
		} else {
			s = s - 1;
		}
		while (s > 10) { s = s - 10; }
	}
	print(s);
	return 0;
}`, lower.Options{})
	for _, f := range p.Funcs {
		if err := f.CheckRegions(); err != nil {
			t.Errorf("region invariant: %v", err)
		}
		// The tree must contain loop regions for the for and while loops.
		loops := 0
		f.Regions.Walk(func(r *ir.Region) {
			if r.IsLoop() {
				loops++
			}
		})
		if loops != 2 {
			t.Errorf("expected 2 loop regions, got %d", loops)
		}
	}
}

func TestMergeStatementsOption(t *testing.T) {
	src := `
int main() {
	int a = 1;
	int b = 2;
	int c = a + b;
	print(c);
	return 0;
}`
	fine := compile(t, src, lower.Options{})
	merged := compile(t, src, lower.Options{MergeStatements: true})
	countRegions := func(p *ir.Program) int {
		n := 0
		p.Funcs[0].Regions.Walk(func(*ir.Region) { n++ })
		return n
	}
	if fn, mn := countRegions(fine), countRegions(merged); fn <= mn {
		t.Errorf("per-statement regions (%d) should outnumber merged regions (%d)", fn, mn)
	}
	// Behaviour must be identical.
	r1, err := interp.Run(fine, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := interp.Run(merged, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Output, r2.Output) {
		t.Errorf("outputs differ: %v vs %v", r1.Output, r2.Output)
	}
}

func TestSemErrors(t *testing.T) {
	bad := []string{
		`int main() { return x; }`,
		`int main() { int a; int a; return 0; }`,
		`int main() { break; }`,
		`void f() {} int main() { int x = f(); return x; }`,
		`int main() { foo(); return 0; }`,
		`int f(int a) { return a; } int main() { return f(); }`,
		`int a[3]; int main() { a = 5; return 0; }`,
		`int main() { int x = 1.5 % 2; return 0; }`,
		`void notmain() {}`,
	}
	for _, src := range bad {
		prog, err := parser.Parse(src)
		if err != nil {
			continue // parse error also counts as rejection
		}
		if err := sem.Check(prog); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestASTPrintRoundTrip(t *testing.T) {
	src := `
int a[4];
float fmix(int n, float x) {
	float acc = 0.0;
	int i;
	for (i = 0; i < n; i = i + 1) {
		acc = acc + x * i;
	}
	return acc;
}
int main() {
	print(fmix(3, 2.5));
	return 0;
}`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	text := ast.Print(prog)
	prog2, err := parser.Parse(text)
	if err != nil {
		t.Fatalf("re-parse of printed program failed: %v\n%s", err, text)
	}
	if got, want := ast.Print(prog2), text; got != want {
		t.Errorf("print not stable:\n%s\nvs\n%s", got, want)
	}
}

// TestGlobalWordsBound: globals may take MaxGlobalWords words in all and
// no more, however the words are split between declarations, and a
// length near the int64 limit cannot wrap the sum back under the bound.
func TestGlobalWordsBound(t *testing.T) {
	lowerGlobals := func(decls string) error {
		prog, err := parser.Parse(decls + " int main() { return 0; }")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := sem.Check(prog); err != nil {
			t.Fatalf("check: %v", err)
		}
		_, err = lower.Lower(prog, lower.Options{})
		return err
	}
	if err := lowerGlobals(fmt.Sprintf("int a[%d]; int b;", lower.MaxGlobalWords-1)); err != nil {
		t.Errorf("%d words: %v", lower.MaxGlobalWords, err)
	}
	for _, decls := range []string{
		fmt.Sprintf("int a[%d]; int b; int c;", lower.MaxGlobalWords-1),
		"int g[400000000];",
		"int x; int a[9223372036854775807];",
	} {
		if err := lowerGlobals(decls); err == nil || !strings.Contains(err.Error(), "globals need more than") {
			t.Errorf("%s: err = %v, want the global words bound", decls, err)
		}
	}
}
