package interp_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

func runProgram(t *testing.T, src string, opts interp.Options) (*interp.Result, error) {
	t.Helper()
	p, err := ir.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return interp.Run(p, opts)
}

func TestArithmeticOps(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 17 => r1
	loadI 5 => r2
	add r1, r2 => r3
	print r3
	sub r1, r2 => r3
	print r3
	mult r1, r2 => r3
	print r3
	div r1, r2 => r3
	print r3
	mod r1, r2 => r3
	print r3
	neg r1 => r3
	print r3
	not r1 => r3
	print r3
	cmpLT r2, r1 => r3
	print r3
	cmpGE r2, r1 => r3
	print r3
	cmpEQ r1, r1 => r3
	print r3
	cmpNE r1, r1 => r3
	print r3
	cmpLE r1, r1 => r3
	print r3
	cmpGT r1, r2 => r3
	print r3
	ret
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"22", "12", "85", "3", "2", "-17", "0", "1", "0", "1", "0", "1", "1"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestFloatOps(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
	loadF 2.5 => r1
	loadF 0.5 => r2
	fadd r1, r2 => r3
	fprint r3
	fsub r1, r2 => r3
	fprint r3
	fmult r1, r2 => r3
	fprint r3
	fdiv r1, r2 => r3
	fprint r3
	fneg r1 => r3
	fprint r3
	fcmpLT r2, r1 => r3
	print r3
	fcmpEQ r1, r1 => r3
	print r3
	i2f r3 => r4
	fprint r4
	loadF 7.9 => r5
	f2i r5 => r6
	print r6
	ret
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"3", "2", "1.25", "5", "-2.5", "1", "1", "1", "7"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestMemoryAndStats(t *testing.T) {
	res, err := runProgram(t, `
globals 4
init 2 = 99
func main params=0 locals=2 spills=1
	loadI 2 => r1
	ldm r1 => r2
	print r2
	loadI 7 => r3
	storeAI r3 => r1, 1
	loadAI r1, 1 => r4
	print r4
	lea 0 => r5
	stm r3 => r5
	ldm r5 => r6
	print r6
	sts r6 => 0
	lds 0 => r7
	print r7
	i2i r7 => r8
	print r8
	ret
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"99", "7", "7", "7", "7"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
	st := res.PerFunc["main"]
	if st.Loads != 4 { // ldm, loadAI, ldm, lds
		t.Errorf("loads = %d, want 4", st.Loads)
	}
	if st.Stores != 3 { // storeAI, stm, sts
		t.Errorf("stores = %d, want 3", st.Stores)
	}
	if st.Copies != 1 {
		t.Errorf("copies = %d, want 1", st.Copies)
	}
}

func TestCallConventions(t *testing.T) {
	// Register-window semantics: callee clobbering r1 must not affect the
	// caller's r1. Arguments pass via the arg stack; the result returns
	// through ret.
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 10 => r1
	arg r1
	call double() => r2
	print r2
	print r1
	ret
end
func double params=1 locals=0
	getparam 0 => r1
	add r1, r1 => r1
	ret r1
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"20", "10"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
	if res.PerFunc["double"] == nil || res.PerFunc["double"].Cycles != 3 {
		t.Errorf("per-function attribution wrong: %+v", res.PerFunc["double"])
	}
	// The caller executed: loadI, arg, call, print, print, ret = 6.
	if res.PerFunc["main"].Cycles != 6 {
		t.Errorf("main cycles = %d, want 6", res.PerFunc["main"].Cycles)
	}
}

func TestSpillSlotsArePerFrame(t *testing.T) {
	// Recursion: each frame has its own spill area.
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 3 => r1
	arg r1
	call fact() => r2
	print r2
	ret
end
func fact params=1 locals=0 spills=1
	getparam 0 => r1
	sts r1 => 0
	loadI 2 => r2
	cmpLT r1, r2 => r3
	cbr r3 -> LBase, LRec
LBase:
	loadI 1 => r4
	ret r4
LRec:
	loadI 1 => r5
	sub r1, r5 => r6
	arg r6
	call fact() => r7
	lds 0 => r8
	mult r7, r8 => r9
	ret r9
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != "6" {
		t.Errorf("3! = %v, want 6", res.Output)
	}
}

// TestErrors pins each runtime check's error text and the point it
// fires at: main's cycle count when the run stops (the failing
// instruction included).
func TestErrors(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := map[string]struct {
		src     string
		opts    interp.Options
		wantErr string
		cycles  int64
	}{
		"div_by_zero": {src: `
func main params=0 locals=0
	loadI 1 => r1
	loadI 0 => r2
	div r1, r2 => r3
	ret
end`, wantErr: "interp: main: division by zero", cycles: 3},
		"mod_by_zero": {src: `
func main params=0 locals=0
	loadI 1 => r1
	loadI 0 => r2
	mod r1, r2 => r3
	ret
end`, wantErr: "interp: main: modulo by zero", cycles: 3},
		"oob_memory": {src: `
globals 2
func main params=0 locals=0
	loadI 99999999999 => r1
	ldm r1 => r2
	ret
end`, wantErr: "interp: main: memory access out of range: 99999999999", cycles: 2},
		"negative_address": {src: `
func main params=0 locals=0
	loadI -1 => r1
	loadI 5 => r2
	stm r2 => r1
	ret
end`, wantErr: "interp: main: memory access out of range: -1", cycles: 3},
		"unknown_callee": {src: `
func main params=0 locals=0
	call nobody()
	ret
end`, wantErr: `interp: call to unknown function "nobody"`, cycles: 1},
		"bad_spill_slot": {src: `
func main params=0 locals=0
	lds 5 => r1
	ret
end`, wantErr: "interp: main: spill slot 5 out of range", cycles: 1},
		"bad_spill_store": {src: `
func main params=0 locals=0 k=3 spills=2
	loadI 1 => r1
	sts r1 => 2
	ret
end`, wantErr: "interp: main: spill slot 2 out of range", cycles: 2},
		"unknown_label": {src: `
func main params=0 locals=0
	loadI 1 => r1
	cbr r1 -> Nowhere, L
L:
	ret
end`, wantErr: `interp: main: unknown label "Nowhere"`, cycles: 2},
		"unknown_jump_label": {src: `
func main params=0 locals=0
	jump -> Nowhere
end`, wantErr: `interp: main: unknown label "Nowhere"`, cycles: 1},
		"missing_argument": {src: `
func main params=0 locals=0
	loadI 1 => r1
	arg r1
	call f()
	ret
end
func f params=1 locals=0
	getparam 0 => r1
	getparam 1 => r2
	ret
end`, wantErr: "interp: f: missing argument 1", cycles: 3},
		"staged_underflow": {src: `
func main params=0 locals=0
	call f()
	ret
end
func f params=1 locals=0
	ret
end`, wantErr: "interp: call to f with 0 staged arguments, need 1", cycles: 1},
		"register_out_of_range": {src: `
func main params=0 locals=0
	loadI 1 => r1
	call f()
	ret
end
func f params=0 locals=0 k=3 spills=0
	loadI 2 => r9
	ret
end`, wantErr: "interp: f: register r9 out of range (3 registers)", cycles: 2},
		"cycle_budget": {src: `
func main params=0 locals=0
L:
	jump -> L
end`, opts: interp.Options{MaxCycles: 1000}, wantErr: "interp: cycle budget exhausted in main", cycles: 1001},
		"cancelled": {src: `
func main params=0 locals=0
	loadI 1 => r1
	ret
end`, opts: interp.Options{Context: cancelled}, wantErr: "interp: run cancelled in main: context canceled", cycles: 1},
		"stack_overflow": {src: `
func main params=0 locals=0
	call f()
	ret
end
func f params=0 locals=11
	ret
end`, opts: interp.Options{StackWords: 10}, wantErr: "interp: stack overflow in f", cycles: 1},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			res, err := runProgram(t, c.src, c.opts)
			if err == nil || err.Error() != c.wantErr {
				t.Fatalf("error = %v, want %q", err, c.wantErr)
			}
			if got := res.PerFunc["main"].Cycles; got != c.cycles {
				t.Errorf("main ran %d cycles before the error, want %d", got, c.cycles)
			}
		})
	}
}

func TestFuelLimit(t *testing.T) {
	_, err := runProgram(t, `
func main params=0 locals=0
L:
	jump -> L
end`, interp.Options{MaxCycles: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("expected budget exhaustion, got %v", err)
	}
}

func TestStackOverflow(t *testing.T) {
	_, err := runProgram(t, `
func main params=0 locals=4000000
	ret
end`, interp.Options{StackWords: 1000})
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("expected stack overflow, got %v", err)
	}
}

func TestLabelsAreFree(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
L0:
L1:
	loadI 1 => r1
L2:
	ret r1
end`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Cycles != 2 {
		t.Errorf("cycles = %d, want 2 (labels free)", res.Total.Cycles)
	}
	if res.Ret != 1 {
		t.Errorf("ret = %d, want 1", res.Ret)
	}
}

func TestGlobalInitApplied(t *testing.T) {
	res, err := runProgram(t, `
globals 3
init 0 = 11
init 2 = 33
func main params=0 locals=0
	loadI 0 => r1
	ldm r1 => r2
	print r2
	loadI 1 => r1
	ldm r1 => r2
	print r2
	loadI 2 => r1
	ldm r1 => r2
	print r2
	ret
end`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"11", "0", "33"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestTrace(t *testing.T) {
	p, err := ir.ParseProgram(`
func main params=0 locals=0
	loadI 3 => r1
	print r1
	ret
end`)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if _, err := interp.Run(p, interp.Options{Trace: &buf}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("trace has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "loadI 3 => r1") || !strings.HasPrefix(lines[0], "main\t") {
		t.Errorf("bad trace line: %q", lines[0])
	}
	// Third column is the program-wide executed-cycle count.
	for i, l := range lines {
		cols := strings.Split(l, "\t")
		if len(cols) != 4 {
			t.Fatalf("trace line %d has %d columns, want 4: %q", i, len(cols), l)
		}
		if cols[2] != strconv.Itoa(i+1) {
			t.Errorf("trace line %d cycle column = %q, want %d", i, cols[2], i+1)
		}
	}
}

func TestArgStackUnderflow(t *testing.T) {
	_, err := runProgram(t, `
func main params=0 locals=0
	loadI 1 => r1
	arg r1
	call two() => r2
	ret
end
func two params=2 locals=0
	getparam 0 => r1
	getparam 1 => r2
	add r1, r2 => r3
	ret r3
end`, interp.Options{})
	if err == nil || !strings.Contains(err.Error(), "staged") {
		t.Errorf("expected staged-argument error, got %v", err)
	}
}

func TestNestedCallArgStaging(t *testing.T) {
	// f(a, g(b), c): arguments interleave with a nested call; the stack
	// discipline must keep them straight.
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 1 => r1
	loadI 2 => r2
	loadI 3 => r3
	arg r1
	arg r2
	call g() => r4
	arg r4
	arg r3
	call f() => r5
	print r5
	ret
end
func g params=1 locals=0
	getparam 0 => r1
	mult r1, r1 => r2
	ret r2
end
func f params=3 locals=0
	getparam 0 => r1
	getparam 1 => r2
	getparam 2 => r3
	loadI 100 => r4
	mult r1, r4 => r1
	loadI 10 => r4
	mult r2, r4 => r2
	add r1, r2 => r1
	add r1, r3 => r1
	ret r1
end`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// f(1, g(2)=4, 3) = 100*1 + 10*4 + 3 = 143.
	if res.Output[0] != "143" {
		t.Errorf("output = %v, want 143", res.Output)
	}
}

func TestUntouchedStackWords(t *testing.T) {
	// The last word under the default stack limit and one in the middle
	// of the stack: never written, they read 0, and a store persists.
	last := 2 + 1<<22 - 1
	res, err := runProgram(t, fmt.Sprintf(`
globals 2
func main params=0 locals=0
	loadI %d => r1
	ldm r1 => r2
	print r2
	loadI 42 => r3
	stm r3 => r1
	ldm r1 => r2
	print r2
	loadI %d => r4
	loadAI r4, 0 => r5
	print r5
	storeAI r3 => r4, 0
	loadI 7 => r3
	storeAI r3 => r4, 1
	loadAI r4, 0 => r5
	print r5
	loadAI r4, 1 => r5
	print r5
	ret
end`, last, 1<<20), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Output, ","); got != "0,42,0,42,7" {
		t.Errorf("output = %s, want 0,42,0,42,7", got)
	}
}

func TestMemoryLimit(t *testing.T) {
	// Memory ends at GlobalWords+StackWords: the word below is usable,
	// the limit itself is out of range.
	src := `
globals 2
func main params=0 locals=0
	loadI %d => r1
	loadI 5 => r2
	stm r2 => r1
	ldm r1 => r3
	print r3
	ret
end`
	res, err := runProgram(t, fmt.Sprintf(src, 101), interp.Options{StackWords: 100})
	if err != nil || strings.Join(res.Output, ",") != "5" {
		t.Fatalf("store/load below the limit: output %v, err %v", res.Output, err)
	}
	_, err = runProgram(t, fmt.Sprintf(src, 102), interp.Options{StackWords: 100})
	if err == nil || err.Error() != "interp: main: memory access out of range: 102" {
		t.Errorf("access at the limit: err = %v", err)
	}
}

func TestUnknownLabelOnlyWhenTaken(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 1 => r1
	cbr r1 -> L, Nowhere
L:
	print r1
	ret
	jump -> Elsewhere
end`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Cycles != 4 {
		t.Errorf("cycles = %d, want 4", res.Total.Cycles)
	}
}

func TestBadRegisterOnlyWhenCalled(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 1 => r1
	cbr r1 -> L, Call
Call:
	call bad()
L:
	ret r1
end
func bad params=0 locals=0 k=3 spills=0
	loadI 2 => r9
	ret
end`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 1 || res.PerFunc["bad"] != nil {
		t.Errorf("ret = %d, bad stats = %v; want 1 and bad never entered", res.Ret, res.PerFunc["bad"])
	}
}

func TestCallerSavePoisonedAfterABICall(t *testing.T) {
	// k=4: r1 and r2 are caller-save, r3 and r4 callee-save. After the
	// call r1 holds the result, r2 the poison, r3 its old value.
	res, err := runProgram(t, `
func main params=0 locals=0 k=4 spills=0 abi=1
	loadI 7 => r2
	loadI 8 => r3
	call g() => r1
	print r2
	print r3
	print r1
	ret
end
func g params=0 locals=0 k=4 spills=0 abi=1
	loadI 5 => r1
	ret r1
end`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := strconv.FormatInt(ir.ClobberPoison, 10) + ",8,5"
	if got := strings.Join(res.Output, ","); got != want {
		t.Errorf("output = %s, want %s", got, want)
	}
}

// TestCallDepthLimit runs recursion of depth n below main: n+2
// activations in all (main, then f(n) down to f(0)).
func TestCallDepthLimit(t *testing.T) {
	src := `
func main params=0 locals=0
	loadI %d => r1
	arg r1
	call f() => r2
	ret r2
end
func f params=1 locals=0
	getparam 0 => r1
	loadI 0 => r2
	cmpEQ r1, r2 => r3
	cbr r3 -> Done, More
More:
	loadI 1 => r4
	sub r1, r4 => r5
	arg r5
	call f() => r6
	add r6, r4 => r6
	ret r6
Done:
	ret r2
end`
	n := interp.MaxCallDepth - 2
	res, err := runProgram(t, fmt.Sprintf(src, n), interp.Options{})
	if err != nil || res.Ret != int64(n) {
		t.Fatalf("recursion at the limit: ret %v, err %v; want %d", res.Ret, err, n)
	}
	_, err = runProgram(t, fmt.Sprintf(src, n+1), interp.Options{})
	if err == nil || err.Error() != "interp: call depth limit exceeded in f" {
		t.Errorf("recursion past the limit: err = %v", err)
	}
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on, so a test can see exactly which cycles poll it.
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

func TestContextPolledEvery8193Cycles(t *testing.T) {
	// Polls fall on cycles 1, 8194, 16387, ...: the third stops the run.
	ctx := &cancelAfter{Context: context.Background(), n: 3}
	res, err := runProgram(t, `
func main params=0 locals=0
L:
	jump -> L
end`, interp.Options{Context: ctx})
	if err == nil || err.Error() != "interp: run cancelled in main: context canceled" {
		t.Fatalf("err = %v", err)
	}
	if got := res.PerFunc["main"].Cycles; got != 1+2*8193 {
		t.Errorf("cancelled at cycle %d, want %d", got, 1+2*8193)
	}
}
