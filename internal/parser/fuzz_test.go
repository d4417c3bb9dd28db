package parser_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/randprog"
	"repro/internal/token"
)

// FuzzParse: Parse never panics, a second parse of the same input gives
// the same error text, and when a separate lexer pass over the input
// reports an error, Parse returns the first one. The corpus is seeded
// with the Table 1 suite, a few randprog programs and the nesting shapes
// at and just past the depth bound.
func FuzzParse(f *testing.F) {
	for _, p := range bench.Programs() {
		f.Add(p.Source)
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randprog.Generate(seed, randprog.DefaultConfig()))
	}
	for _, shape := range nestingShapes {
		f.Add(shape(parser.MaxDepth))
		f.Add(shape(parser.MaxDepth + 1))
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := parser.Parse(src)
		_, again := parser.Parse(src)
		if errText(err) != errText(again) {
			t.Fatalf("first parse: %v; second parse: %v", err, again)
		}
		lx := lexer.New(src)
		for lx.Next().Kind != token.EOF {
		}
		if lexErrs := lx.Errors(); len(lexErrs) > 0 && errText(err) != lexErrs[0].Error() {
			t.Fatalf("Parse = %v, want the first lexical error %v", err, lexErrs[0])
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
