package rap_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/randprog"
	"repro/internal/regalloc"
	"repro/internal/regalloc/rap"
	"repro/internal/testutil"
)

var programs = map[string]string{
	"straightline": `
int main() {
	int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
	int f = a + b; int g = c + d; int h = e + f; int i = g + h;
	print(a + b + c + d + e + f + g + h + i);
	return 0;
}`,
	"pressure": `
int main() {
	int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
	int f = 6; int g = 7; int h = 8; int i = 9; int j = 10;
	int s1 = a*b + c*d; int s2 = e*f + g*h; int s3 = i*j + a*c;
	int s4 = b*d + e*g; int s5 = f*h + i*a;
	print(s1); print(s2); print(s3); print(s4); print(s5);
	print(a+b+c+d+e+f+g+h+i+j);
	print(s1+s2+s3+s4+s5);
	return s1 - s2;
}`,
	"loop_pressure": `
int main() {
	int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
	int i; int acc = 0;
	for (i = 0; i < 20; i = i + 1) {
		acc = acc + a*b + c*d + e*i;
		if (acc > 100) { acc = acc - b*c - d*e; }
	}
	print(acc); print(a+b+c+d+e);
	return acc % 7;
}`,
	"nested_loops": `
int main() {
	int i; int j; int k; int acc = 0;
	for (i = 0; i < 6; i = i + 1) {
		for (j = 0; j < 6; j = j + 1) {
			for (k = 0; k < 6; k = k + 1) {
				acc = acc + i*j + j*k + (i - k);
			}
			if (acc % 5 == 0) { acc = acc + 1; }
		}
	}
	print(acc);
	return 0;
}`,
	"branches": `
int main() {
	int x = 10; int y = 20; int z = 30;
	if (x < y) {
		int t = x * z;
		if (t > 100) { print(t); } else { print(-t); }
	} else {
		print(y + z);
	}
	while (z > 0) {
		z = z - 7;
		if (z == 9) { break; }
	}
	print(z);
	return z;
}`,
	"arrays": `
int data[64];
int main() {
	int i;
	for (i = 0; i < 64; i = i + 1) { data[i] = i * 3 % 17; }
	int best = 0;
	for (i = 0; i < 64; i = i + 1) {
		if (data[i] > best) { best = data[i]; }
	}
	print(best);
	return best;
}`,
	"calls": `
int square(int x) { return x * x; }
int sumsq(int n) {
	int i; int s = 0;
	for (i = 1; i <= n; i = i + 1) { s = s + square(i); }
	return s;
}
int main() {
	print(sumsq(10));
	return 0;
}`,
	"recursion": `
int ack(int m, int n) {
	if (m == 0) { return n + 1; }
	if (n == 0) { return ack(m - 1, 1); }
	return ack(m - 1, ack(m, n - 1));
}
int main() {
	print(ack(2, 3));
	return 0;
}`,
	"floats": `
float poly(float x) {
	return 3.0*x*x*x - 2.0*x*x + 0.5*x - 7.25;
}
int main() {
	float x = 0.0;
	float acc = 0.0;
	while (x < 4.0) {
		acc = acc + poly(x);
		x = x + 0.5;
	}
	print(acc);
	return 0;
}`,
	"spill_in_loop": `
int main() {
	int a = 1; int b = 2; int c = 3; int d = 4;
	int e = 5; int f = 6; int g = 7; int h = 8;
	int i; int acc = 0;
	for (i = 0; i < 10; i = i + 1) {
		acc = acc + a + b + c + d + e + f + g + h;
		a = a + 1; c = c + 2;
	}
	print(acc); print(a); print(c);
	print(b + d + e + f + g + h);
	return 0;
}`,
	"globals": `
int gx = 3;
int gy = 4;
int main() {
	int i;
	for (i = 0; i < 5; i = i + 1) {
		gx = gx + gy;
		gy = gy + 1;
	}
	print(gx); print(gy);
	return 0;
}`,
}

func allOptions() map[string]rap.Options {
	return map[string]rap.Options{
		"full":      {},
		"no_motion": {DisableSpillMotion: true},
		"no_peep":   {DisablePeephole: true},
		"phase1":    {DisableSpillMotion: true, DisablePeephole: true},
	}
}

func TestRAPDifferential(t *testing.T) {
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			for _, merge := range []bool{false, true} {
				p, err := testutil.Compile(src, lower.Options{MergeStatements: merge})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := testutil.Run(p)
				if err != nil {
					t.Fatalf("virtual run: %v", err)
				}
				for optName, opts := range allOptions() {
					for _, k := range []int{3, 4, 5, 7, 9, 16} {
						alloc, err := testutil.AllocateFunc(p, func(f *ir.Function) error {
							return rap.Allocate(f, k, opts)
						})
						if err != nil {
							t.Fatalf("merge=%v %s k=%d: %v", merge, optName, k, err)
						}
						for _, f := range alloc.Funcs {
							if err := regalloc.CheckPhysical(f); err != nil {
								t.Fatalf("merge=%v %s k=%d: %v", merge, optName, k, err)
							}
						}
						got, err := testutil.Run(alloc)
						if err != nil {
							t.Fatalf("merge=%v %s k=%d run: %v", merge, optName, k, err)
						}
						if err := testutil.SameBehaviour(ref, got); err != nil {
							t.Errorf("merge=%v %s k=%d: %v", merge, optName, k, err)
						}
					}
				}
			}
		})
	}
}

func TestRAPDeterministic(t *testing.T) {
	p, err := testutil.Compile(programs["loop_pressure"], lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]bool{}
	for trial := 0; trial < 5; trial++ {
		alloc, err := testutil.AllocateFunc(p, func(f *ir.Function) error {
			return rap.Allocate(f, 4, rap.Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		texts[alloc.String()] = true
	}
	if len(texts) != 1 {
		t.Errorf("allocation is nondeterministic: %d distinct outputs", len(texts))
	}

	// A randprog corpus at k=3, where most functions take spill rounds,
	// each function allocated twice: the code, the stats, the
	// deterministic metrics snapshot and the trace event sequence must all
	// repeat.
	const k = 3
	randCorpus(t, 20, func(seed int64, f *ir.Function) {
		wantText, wantSt, wantSnap, wantEvs, wantErr := allocTraced(t, f, k, rap.Options{})
		gotText, gotSt, gotSnap, gotEvs, gotErr := allocTraced(t, f, k, rap.Options{})
		where := func() string {
			return fmt.Sprintf("seed %d func %s k=%d", seed, f.Name, k)
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error divergence: %v vs %v", where(), wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if wantText != gotText {
			t.Fatalf("%s: allocation differs:\n--- first ---\n%s\n--- second ---\n%s",
				where(), wantText, gotText)
		}
		if wantSt != gotSt {
			t.Fatalf("%s: stats diverge:\nfirst:  %+v\nsecond: %+v", where(), wantSt, gotSt)
		}
		if !reflect.DeepEqual(wantSnap, gotSnap) {
			t.Fatalf("%s: deterministic metrics diverge:\nfirst:  %+v\nsecond: %+v",
				where(), wantSnap, gotSnap)
		}
		if strings.Join(wantEvs, "\n") != strings.Join(gotEvs, "\n") {
			t.Fatalf("%s: trace events diverge:\n--- first ---\n%s\n--- second ---\n%s",
				where(), strings.Join(wantEvs, "\n"), strings.Join(gotEvs, "\n"))
		}
	})
}

// randCorpus compiles a deterministic randprog corpus and calls fn for
// every function.
func randCorpus(t *testing.T, seeds int64, fn func(seed int64, f *ir.Function)) {
	t.Helper()
	cfg := randprog.Config{MaxFuncs: 2, MaxStmtsPerBlock: 5, MaxDepth: 3, Floats: true}
	for seed := int64(0); seed < seeds; seed++ {
		p, err := testutil.Compile(randprog.Generate(seed, cfg), lower.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, f := range p.Funcs {
			fn(seed, f)
		}
	}
}

// allocTraced allocates a clone of f with a fresh collector and metrics
// registry attached, returning the rewritten text, the stats, the
// deterministic metrics snapshot and the trace event signature sequence.
func allocTraced(t *testing.T, f *ir.Function, k int, opts rap.Options) (string, rap.Stats, obs.Snapshot, []string, error) {
	t.Helper()
	col := &obs.Collector{}
	opts.Trace = obs.New(col).WithMetrics(obs.NewMetrics())
	g := f.Clone()
	st, err := rap.AllocateWithStats(g, k, opts)
	sigs := make([]string, 0, len(col.Events()))
	for _, ev := range col.Events() {
		sigs = append(sigs, eventSig(ev))
	}
	return g.String(), st, opts.Trace.Metrics().Snapshot().Deterministic(), sigs, err
}

// eventSig renders an event deterministically: SpanEnd carries a
// wall-clock duration, so only its phase participates in the comparison;
// every other event is fully deterministic and compares in full.
func eventSig(ev obs.Event) string {
	if se, ok := ev.(*obs.SpanEnd); ok {
		return "SpanEnd:" + se.Phase
	}
	b, err := obs.Encode(ev)
	if err != nil {
		return "encode-error:" + err.Error()
	}
	return string(b)
}

func TestRAPRejectsTinyK(t *testing.T) {
	p := testutil.MustCompile(`int main() { return 0; }`)
	if err := rap.Allocate(p.Funcs[0], 2, rap.Options{}); err == nil {
		t.Error("expected error for k=2")
	}
}

func TestRAPSpillMotionReducesLoopMemOps(t *testing.T) {
	// With heavy pressure inside a loop, spill motion should not increase
	// the executed memory operations, and typically decreases them.
	p, err := testutil.Compile(programs["spill_in_loop"], lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	memOps := func(opts rap.Options) int64 {
		alloc, err := testutil.AllocateFunc(p, func(f *ir.Function) error {
			return rap.Allocate(f, 3, opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := testutil.Run(alloc)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total.Loads + res.Total.Stores
	}
	with := memOps(rap.Options{DisablePeephole: true})
	without := memOps(rap.Options{DisablePeephole: true, DisableSpillMotion: true})
	if with > without {
		t.Errorf("spill motion increased memory ops: with=%d without=%d", with, without)
	}
}
