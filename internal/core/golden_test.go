package core_test

// Golden tests: MiniC programs with hand-computed expected outputs, run
// unallocated and under both allocators at several register set sizes.
// These pin down language semantics (evaluation order, short-circuiting,
// integer division/modulo signs, float formatting) independent of the
// differential fuzzing.

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

var golden = []struct {
	name string
	src  string
	want []string
}{
	{
		name: "division_truncates_toward_zero",
		src: `int main() {
			print(7 / 2); print(-7 / 2); print(7 / -2);
			print(7 % 3); print(-7 % 3); print(7 % -3);
			return 0;
		}`,
		want: []string{"3", "-3", "-3", "1", "-1", "1"},
	},
	{
		name: "short_circuit_effects",
		src: `int g = 0;
		int inc() { g = g + 1; return g; }
		int main() {
			int a = 0 && inc();
			int b = 1 && inc();
			int c = 0 || inc();
			int d = 1 || inc();
			print(a); print(b); print(c); print(d); print(g);
			return 0;
		}`,
		want: []string{"0", "1", "1", "1", "2"},
	},
	{
		name: "evaluation_order_left_to_right",
		src: `int g = 10;
		int take() { int t = g; g = g - 3; return t; }
		int main() {
			print(take() - take());
			print(g);
			return 0;
		}`,
		want: []string{"3", "4"},
	},
	{
		name: "nested_loop_sums",
		src: `int main() {
			int s = 0; int i; int j;
			for (i = 1; i <= 4; i = i + 1) {
				for (j = i; j <= 4; j = j + 1) {
					s = s + i * j;
				}
			}
			print(s);
			return 0;
		}`,
		// i=1: 1+2+3+4=10; i=2: 4+6+8=18; i=3: 9+12=21; i=4: 16 → 65.
		want: []string{"65"},
	},
	{
		name: "while_with_break_continue",
		src: `int main() {
			int n = 0; int hits = 0;
			while (1) {
				n = n + 1;
				if (n > 12) { break; }
				if (n % 3 != 0) { continue; }
				hits = hits + n;
			}
			print(hits); print(n);
			return 0;
		}`,
		want: []string{"30", "13"}, // 3+6+9+12=30
	},
	{
		name: "float_mixing_and_truncation",
		src: `int main() {
			float x = 7.5;
			int t = x / 2;
			print(t);
			float y = 1 / 4;
			print(y);
			float z = 1.0 / 4;
			print(z);
			return 0;
		}`,
		// x/2 promotes to 3.75 then truncates to 3; 1/4 is integer 0;
		// 1.0/4 is 0.25.
		want: []string{"3", "0", "0.25"},
	},
	{
		name: "array_aliasing_through_calls",
		src: `int a[6];
		void bump(int i) { a[i] = a[i] + 10; }
		int main() {
			int i;
			for (i = 0; i < 6; i = i + 1) { a[i] = i; }
			bump(2); bump(2); bump(5);
			print(a[2]); print(a[5]); print(a[0]);
			return 0;
		}`,
		want: []string{"22", "15", "0"},
	},
	{
		name: "recursion_with_locals",
		src: `int depth(int n, int acc) {
			int local = n * 2;
			if (n == 0) { return acc; }
			return depth(n - 1, acc + local);
		}
		int main() {
			print(depth(5, 0));
			return 0;
		}`,
		want: []string{"30"}, // 10+8+6+4+2
	},
	{
		name: "shadowing_blocks",
		src: `int main() {
			int x = 1;
			{
				int x = 2;
				{ int x = 3; print(x); }
				print(x);
			}
			print(x);
			return 0;
		}`,
		want: []string{"3", "2", "1"},
	},
	{
		name: "comparison_chains_yield_ints",
		src: `int main() {
			int a = 3 < 5;
			int b = (a == 1) + (2 >= 2) + (1 != 1);
			print(a); print(b);
			return 0;
		}`,
		want: []string{"1", "2"},
	},
	{
		name: "unary_and_not",
		src: `int main() {
			int x = 5;
			print(-x); print(!x); print(!0); print(--x);
			return 0;
		}`,
		// --x is -(-x) in MiniC (no decrement operator).
		want: []string{"-5", "0", "1", "5"},
	},
	{
		name: "global_scalar_updates",
		src: `int counter = 100;
		void tick() { counter = counter - 7; }
		int main() {
			tick(); tick(); tick();
			print(counter);
			counter = counter % 10;
			print(counter);
			return 0;
		}`,
		want: []string{"79", "9"},
	},
	{
		name: "float_accumulation",
		src: `int main() {
			float s = 0.0;
			int i;
			for (i = 0; i < 4; i = i + 1) {
				s = s + 0.5;
			}
			print(s);
			print(s * s);
			return 0;
		}`,
		want: []string{"2", "4"},
	},
	{
		name: "for_without_braces",
		src: `int main() {
			int s = 0; int i;
			for (i = 0; i < 5; i = i + 1) s = s + i;
			if (s == 10) print(111); else print(222);
			return 0;
		}`,
		want: []string{"111"},
	},
}

func TestGolden(t *testing.T) {
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			for _, cfg := range []core.Config{
				{},
				{Allocator: core.AllocGRA, K: 3},
				{Allocator: core.AllocGRA, K: 8},
				{Allocator: core.AllocRAP, K: 3},
				{Allocator: core.AllocRAP, K: 8},
				{Allocator: core.AllocNaive, K: 3},
				{Allocator: core.AllocIRC, K: 3},
				{Allocator: core.AllocIRC, K: 8},
			} {
				p, err := core.Compile(g.src, cfg)
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				res, err := core.Run(p)
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				if !reflect.DeepEqual(res.Output, g.want) {
					t.Errorf("%+v: output = %v, want %v", cfg, res.Output, g.want)
				}
			}
		})
	}
}
