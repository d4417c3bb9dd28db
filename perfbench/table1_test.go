package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite expected/table1.txt and expected/table1.csv from the current tree")

// TestTable1Expected checks the table1 gate against a fresh Table 1 run;
// with -update it regenerates the expected files instead.
func TestTable1Expected(t *testing.T) {
	rows, err := bench.Table1(bench.Ks, core.CompareConfig{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		text, csv, err := table1Output(rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected/table1.txt", []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected/table1.csv", []byte(csv), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := table1Check(rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Overall average percentage decrease: 0.6 ", "21 of 40", "33 of 40", "39 of 40", "40 of 40"} {
		if !strings.Contains(table1Text, want) {
			t.Errorf("expected Table 1 lacks %q", want)
		}
	}
	extra := map[string]float64{}
	table1Quality(rows, extra)
	if extra["rap_vs_gra_pct"] != 0.6 {
		t.Errorf("rap_vs_gra_pct = %v, want the text's overall average 0.6", extra["rap_vs_gra_pct"])
	}
}

// TestSplitTable1MatchesHarness checks that the traced replay of a Table 1
// pass reproduces the expected table and core.Compile's code, and records
// a span for every layer it calls.
func TestSplitTable1MatchesHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the whole suite")
	}
	r := newRecorder()
	rows, codes, err := splitTable1(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := table1Check(rows); err != nil {
		t.Fatal(err)
	}
	if err := sameAsCompile(codes); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{spanParse, spanSem, spanLower, "alloc.gra", "alloc.rap", "alloc.irc", spanCheck, spanInterp, spanDiff, spanOp} {
		if r.busy(name) == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	// One reference run per program plus three runs per unit.
	if want := int64(len(bench.Programs()) + 3*table1Units); r.runs != want {
		t.Errorf("interp runs = %d, want %d", r.runs, want)
	}
}
