package peephole_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/peephole"
)

// run parses a textual function, applies the pass, and returns the
// resulting instruction strings plus stats.
func run(t *testing.T, body string) ([]string, peephole.Stats) {
	t.Helper()
	f, err := ir.ParseFunction("func f params=0 locals=0\n" + body + "\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	st, err := peephole.Run(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, in := range f.Instrs {
		out = append(out, in.String())
	}
	return out, st
}

// TestFigure6Patterns exercises the five patterns of the paper's Fig. 6.
func TestFigure6Patterns(t *testing.T) {
	tests := []struct {
		name  string
		body  string
		want  []string
		loads int
		tocpy int
		sts   int
	}{
		{
			// (1) ldm r2,20 ... ldm r2,20 -> second load deleted.
			name: "reload_same_register",
			body: `
				lds 20 => r2
				add r2, r2 => r1
				lds 20 => r2
				add r2, r1 => r3
				print r3
				ret`,
			want:  []string{"lds 20 => r2", "add r2, r2 => r1", "add r2, r1 => r3", "print r3", "ret"},
			loads: 1,
		},
		{
			// (2) ldm r2,20 ... ldm r3,20 -> copy r3 := r2.
			name: "reload_other_register",
			body: `
				lds 20 => r2
				add r2, r2 => r1
				lds 20 => r3
				add r3, r1 => r3
				print r3
				ret`,
			want:  []string{"lds 20 => r2", "add r2, r2 => r1", "i2i r2 => r3", "add r3, r1 => r3", "print r3", "ret"},
			tocpy: 1,
		},
		{
			// (3) ldm r2,20 ... stm 20,r2 -> store deleted.
			name: "store_back_loaded_value",
			body: `
				lds 20 => r2
				add r2, r2 => r1
				sts r2 => 20
				print r1
				ret`,
			want: []string{"lds 20 => r2", "add r2, r2 => r1", "print r1", "ret"},
			sts:  1,
		},
		{
			// (4) stm 20,r2 ... ldm r2,20 -> load deleted.
			name: "reload_after_store",
			body: `
				loadI 5 => r2
				sts r2 => 20
				lds 20 => r2
				print r2
				ret`,
			want:  []string{"loadI 5 => r2", "sts r2 => 20", "print r2", "ret"},
			loads: 1,
		},
		{
			// (5) stm 20,r2 ... mv r3,r2 ... stm 20,r3 -> second store deleted.
			name: "store_through_copy",
			body: `
				loadI 5 => r2
				sts r2 => 20
				i2i r2 => r3
				sts r3 => 20
				print r3
				ret`,
			want: []string{"loadI 5 => r2", "sts r2 => 20", "i2i r2 => r3", "print r3", "ret"},
			sts:  1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, st := run(t, tt.body)
			if strings.Join(got, "|") != strings.Join(tt.want, "|") {
				t.Errorf("got:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(tt.want, "\n  "))
			}
			if st.LoadsDeleted != tt.loads || st.LoadsToCopies != tt.tocpy || st.StoresDeleted != tt.sts {
				t.Errorf("stats = %+v, want loads=%d tocpy=%d sts=%d", st, tt.loads, tt.tocpy, tt.sts)
			}
		})
	}
}

// TestRedefKillsBinding: a redefinition of the register between the load
// and the reload must prevent the elimination (the "no redef" side
// condition in Fig. 6).
func TestRedefKillsBinding(t *testing.T) {
	got, st := run(t, `
		lds 20 => r2
		print r2
		loadI 9 => r2
		lds 20 => r2
		print r2
		ret`)
	if st.LoadsDeleted != 0 || st.LoadsToCopies != 0 {
		t.Errorf("elimination across a redefinition: %+v\n%s", st, strings.Join(got, "\n"))
	}
}

// TestStoreInvalidatesOtherHolders: a store to the slot makes previously
// bound registers stale.
func TestStoreInvalidatesOtherHolders(t *testing.T) {
	got, st := run(t, `
		lds 20 => r1
		loadI 9 => r2
		sts r2 => 20
		lds 20 => r1
		print r1
		ret`)
	// The final load must NOT become a copy of r1 (stale); it may become
	// a copy of r2 (the stored value) — that is correct.
	joined := strings.Join(got, "|")
	if strings.Contains(joined, "i2i r1 => r1") {
		t.Errorf("used stale binding:\n%s", strings.Join(got, "\n"))
	}
	if st.LoadsDeleted+st.LoadsToCopies == 0 {
		t.Errorf("expected the reload of the just-stored slot to be simplified, got %+v\n%s",
			st, strings.Join(got, "\n"))
	}
}

// TestBlockLocal: the optimization must not eliminate across basic block
// boundaries (the paper's phase is per basic block).
func TestBlockLocal(t *testing.T) {
	_, st := run(t, `
		lds 20 => r2
		cbr r2 -> L1, L2
	L1:
		lds 20 => r2
		print r2
		ret
	L2:
		ret`)
	if st.LoadsDeleted != 0 || st.LoadsToCopies != 0 {
		t.Errorf("eliminated across block boundary: %+v", st)
	}
}

// TestDifferentSlotsIndependent: operations on different slots do not
// interfere.
func TestDifferentSlotsIndependent(t *testing.T) {
	got, st := run(t, `
		loadI 1 => r1
		sts r1 => 0
		loadI 2 => r2
		sts r2 => 1
		lds 0 => r3
		lds 1 => r1
		print r3
		print r1
		ret`)
	if st.StoresDeleted != 0 {
		t.Errorf("deleted a needed store: %+v\n%s", st, strings.Join(got, "\n"))
	}
	// Both reloads can be satisfied from registers.
	if st.LoadsDeleted+st.LoadsToCopies != 2 {
		t.Errorf("expected both reloads simplified, got %+v\n%s", st, strings.Join(got, "\n"))
	}
}

// TestProgramMemoryDoesNotAlias: ldm/stm touch program memory, which is
// disjoint from the frame's spill area, so bindings survive them.
func TestProgramMemoryDoesNotAlias(t *testing.T) {
	_, st := run(t, `
		lds 20 => r1
		loadI 100 => r2
		stm r1 => r2
		lds 20 => r3
		print r3
		ret`)
	if st.LoadsToCopies != 1 {
		t.Errorf("binding should survive stm: %+v", st)
	}
}
