package ir_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

const sampleFn = `func f params=2 locals=8
	getparam 0 => r1
	getparam 1 => r2
L0:
	loadI 42 => r3
	loadF 2.5 => r4
	lea 4 => r5
	add r1, r2 => r6
	fmult r4, r4 => r7
	cmpLT r6, r3 => r8
	cbr r8 -> L1, L2
L1:
	ldm r5 => r9
	loadAI r1, 128 => r10
	stm r9 => r5
	storeAI r9 => r1, 64
	lds 3 => r11
	sts r11 => 3
	i2i r9 => r12
	i2f r12 => r13
	f2i r13 => r14
	neg r14 => r15
	fneg r13 => r16
	not r15 => r17
	arg r6
	call g() => r18
	print r18
	fprint r16
	jump -> L2
L2:
	ret r6
end
`

func TestParsePrintRoundTrip(t *testing.T) {
	f, err := ir.ParseFunction(sampleFn)
	if err != nil {
		t.Fatal(err)
	}
	text := f.String()
	f2, err := ir.ParseFunction(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if got := f2.String(); got != text {
		t.Errorf("round trip not stable:\n%s\nvs\n%s", text, got)
	}
	if f.NumParams != 2 || f.LocalWords != 8 {
		t.Errorf("header fields lost: %+v", f)
	}
}

func TestUsesAndDefs(t *testing.T) {
	cases := []struct {
		instr string
		uses  []ir.Reg
		def   ir.Reg
	}{
		{"loadI 5 => r1", nil, 1},
		{"add r1, r2 => r3", []ir.Reg{1, 2}, 3},
		{"i2i r4 => r5", []ir.Reg{4}, 5},
		{"ldm r1 => r2", []ir.Reg{1}, 2},
		{"stm r1 => r2", []ir.Reg{1, 2}, ir.None},
		{"loadAI r1, 8 => r2", []ir.Reg{1}, 2},
		{"storeAI r1 => r2, 8", []ir.Reg{1, 2}, ir.None},
		{"lds 3 => r7", nil, 7},
		{"sts r7 => 3", []ir.Reg{7}, ir.None},
		{"cbr r1 -> A, B", []ir.Reg{1}, ir.None},
		{"jump -> A", nil, ir.None},
		{"ret r2", []ir.Reg{2}, ir.None},
		{"ret", nil, ir.None},
		{"print r1", []ir.Reg{1}, ir.None},
		{"arg r9", []ir.Reg{9}, ir.None},
		{"call g(r1, r2) => r3", []ir.Reg{1, 2}, 3},
		{"getparam 1 => r2", nil, 2},
		{"lea 16 => r1", nil, 1},
	}
	for _, c := range cases {
		f, err := ir.ParseFunction("func f params=2 locals=0\n" + c.instr + "\nend\n")
		if err != nil {
			t.Fatalf("%s: %v", c.instr, err)
		}
		in := f.Instrs[0]
		uses := in.Uses(nil)
		if len(uses) != len(c.uses) {
			t.Errorf("%s: uses = %v, want %v", c.instr, uses, c.uses)
			continue
		}
		for i := range uses {
			if uses[i] != c.uses[i] {
				t.Errorf("%s: uses = %v, want %v", c.instr, uses, c.uses)
			}
		}
		if in.Def() != c.def {
			t.Errorf("%s: def = %v, want %v", c.instr, in.Def(), c.def)
		}
	}
}

func TestRewriteUsesKeepsDef(t *testing.T) {
	f, _ := ir.ParseFunction("func f params=0 locals=0\nadd r1, r2 => r1\nend\n")
	in := f.Instrs[0]
	in.RewriteUses(func(r ir.Reg) ir.Reg { return r + 10 })
	if in.Src1 != 11 || in.Src2 != 12 || in.Dst != 1 {
		t.Errorf("RewriteUses wrong: %s", in)
	}
	in.SetDef(20)
	if in.Dst != 20 {
		t.Errorf("SetDef wrong: %s", in)
	}
}

func TestRegionSpans(t *testing.T) {
	f, _ := ir.ParseFunction("func f params=0 locals=0\nloadI 1 => r1\nloadI 2 => r2\nloadI 3 => r3\nret r1\nend\n")
	// Build a small tree: entry(0) { stmt(1): [1,3) }.
	child := &ir.Region{ID: 1, Kind: ir.RegionStmt, Parent: f.Regions}
	f.Regions.Children = append(f.Regions.Children, child)
	f.NumRegions = 2
	f.Instrs[1].Region = 1
	f.Instrs[2].Region = 1
	spans := f.RegionSpans()
	if s := spans[1]; s.Start != 1 || s.End != 3 {
		t.Errorf("child span = %+v, want [1,3)", s)
	}
	if s := spans[0]; s.Start != 0 || s.End != 4 {
		t.Errorf("entry span = %+v, want [0,4)", s)
	}
	if err := f.CheckRegions(); err != nil {
		t.Errorf("CheckRegions: %v", err)
	}
	// Break contiguity: give instruction 2 to the entry while 1 and 3 are
	// the child's — wait, make child own 1 and 3 with 2 outside.
	f.Instrs[2].Region = 0
	f.Instrs[3].Region = 1
	if err := f.CheckRegions(); err == nil {
		t.Error("CheckRegions should reject a non-contiguous region")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f, err := ir.ParseFunction(sampleFn)
	if err != nil {
		t.Fatal(err)
	}
	cp := f.Clone()
	cp.Instrs[0].Dst = 99
	cp.Regions.Children = append(cp.Regions.Children, &ir.Region{ID: 5})
	if f.Instrs[0].Dst == 99 {
		t.Error("instruction not deep-copied")
	}
	if len(f.Regions.Children) != 0 {
		t.Error("region tree not deep-copied")
	}
}

func TestVRegs(t *testing.T) {
	f, _ := ir.ParseFunction("func f params=0 locals=0\nadd r3, r7 => r2\nret r2\nend\n")
	got := f.VRegs()
	want := []ir.Reg{2, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("VRegs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VRegs = %v, want %v", got, want)
		}
	}
}

func TestProgramParseErrors(t *testing.T) {
	bad := []string{
		"func f params=0\nbogus r1\nend\n",
		"func f params=0\nadd r1 => r2\nend\n",
		"func f params=0\ncbr r1 -> onlyone\nend\n",
		"garbage\n",
		"func f params=x\nend\n",
	}
	for _, src := range bad {
		if _, err := ir.ParseProgram(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

// TestParseMissingOperands pins the fuzz-shrinker reproducers: a mnemonic
// with its operands deleted must come back as a parse error, never as an
// index-out-of-range panic (these lines once crashed the parser).
func TestParseMissingOperands(t *testing.T) {
	bad := []string{
		"loadI", "loadI => r1", "loadF", "lea", "getparam", "lds",
		"sts", "stm", "ldm", "loadAI", "loadAI r1", "storeAI",
		"not", "not => r2", "i2i",
		"add", "add r1", "cbr", "jump", "call", "call (",
	}
	for _, line := range bad {
		src := "func f params=0\n" + line + "\nend\n"
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("parser panicked on %q: %v", line, r)
				}
			}()
			if _, err := ir.ParseProgram(src); err == nil {
				t.Errorf("expected parse error for %q", line)
			}
		}()
	}
	if _, err := ir.ParseProgram("func\nend\n"); err == nil {
		t.Error("expected parse error for nameless func header")
	}
}

func TestProgramRoundTrip(t *testing.T) {
	src := "globals 10\ninit 3 = 42\n" + sampleFn + "func g params=0 locals=0\n\tloadI 7 => r1\n\tret r1\nend\n"
	p, err := ir.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.GlobalWords != 10 || p.GlobalInit[3] != 42 {
		t.Errorf("globals lost: %+v", p)
	}
	text := p.String()
	p2, err := ir.ParseProgram(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if p2.String() != text {
		t.Error("program round trip not stable")
	}
	if p.Func("g") == nil || p.Func("nope") != nil {
		t.Error("Func lookup wrong")
	}
}

func TestInstrStringForms(t *testing.T) {
	f, err := ir.ParseFunction(sampleFn)
	if err != nil {
		t.Fatal(err)
	}
	text := f.String()
	for _, want := range []string{
		"storeAI r9 => r1, 64", "loadAI r1, 128 => r10", "cbr r8 -> L1, L2",
		"call g() => r18", "arg r6", "sts r11 => 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("printed function missing %q:\n%s", want, text)
		}
	}
}
