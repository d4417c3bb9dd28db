package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lower"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamsDependOnlyOnSeed(t *testing.T) {
	streams := map[string]func(seed int64) any{
		"serve-compile": func(seed int64) any { return compileStream(seed, 60) },
		"serve-repeat":  func(seed int64) any { return newRepeatStream(seed, 300) },
	}
	for name, gen := range streams {
		a, b, c := mustJSON(t, gen(7)), mustJSON(t, gen(7)), mustJSON(t, gen(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different job streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same job stream", name)
		}
	}
}

// TestServeCompilePassesCoverTheUniverse checks that every seed's
// serve-compile stream is one permutation of the same distinct jobs,
// repeated, so a pass's content and the quality guards summed over it do
// not depend on the seed.
func TestServeCompilePassesCoverTheUniverse(t *testing.T) {
	pass := compilePass()
	a, b := compileStream(1, 2*pass+5), compileStream(2, pass)
	for i := pass; i < len(a); i++ {
		if a[i].CacheKey() != a[i-pass].CacheKey() {
			t.Fatalf("job %d differs from job %d one pass earlier", i, i-pass)
		}
	}
	count := map[string]int{}
	for _, j := range a[:pass] {
		count[j.CacheKey()]++
	}
	if len(count) != pass {
		t.Fatalf("a pass holds %d distinct jobs, want %d", len(count), pass)
	}
	for _, j := range b {
		count[j.CacheKey()]--
	}
	for _, n := range count {
		if n != 0 {
			t.Fatal("seeds 1 and 2 pass over different jobs")
		}
	}
}

// functionsOf splits a randprog program into its functions' source text,
// keyed by header line.
func functionsOf(src string) map[string]string {
	lines := strings.Split(src, "\n")
	heads := functionHeads(lines)
	out := map[string]string{}
	for n, h := range heads {
		end := len(lines)
		if n+1 < len(heads) {
			end = heads[n+1]
		}
		out[lines[h]] = strings.Join(lines[h:end], "\n")
	}
	return out
}

func TestNearDuplicatesEditOneFunction(t *testing.T) {
	s := newRepeatStream(3, 800)
	dups := 0
	for i, j := range s.Jobs {
		if j.Kind != kindNearDup {
			continue
		}
		dups++
		if j.Alloc != "rap" {
			t.Errorf("job %d: near-duplicate runs under %s, want rap", i, j.Alloc)
		}
		src := s.Progs[j.Prog]
		if _, err := core.Frontend(src, lower.Options{}, nil); err != nil {
			t.Fatalf("job %d: near-duplicate does not compile: %v", i, err)
		}
		got, base := functionsOf(src), functionsOf(s.Progs[j.Base])
		if len(got) != len(base) {
			t.Fatalf("job %d: %d functions, base has %d", i, len(got), len(base))
		}
		differ := 0
		for head, body := range base {
			if got[head] != body {
				differ++
			}
		}
		if differ != 1 {
			t.Errorf("job %d: %d functions differ from the base, want 1", i, differ)
		}
	}
	if dups == 0 {
		t.Fatal("stream has no near-duplicates")
	}
}

// TestRepeatShareAwayFromHalf keeps serve-repeat's median job off the
// cache hit/miss boundary: exact repeats stay well below half the jobs,
// over the guard jobs' span and over a whole stream.
func TestRepeatShareAwayFromHalf(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := newRepeatStream(seed, repeatStreamLen)
		for _, n := range []int{s.guardEnd(), repeatStreamLen} {
			repeats := 0
			for _, j := range s.Jobs[:n] {
				if j.Kind == kindRepeat {
					repeats++
				}
			}
			if share := float64(repeats) / float64(n); share < 0.25 || share > 0.40 {
				t.Errorf("seed %d: exact-repeat share of the first %d jobs is %.3f, want 0.25..0.40", seed, n, share)
			}
		}
	}
}

// TestRepeatGuardJobsDoNotDependOnSeed checks that the first guardBlock
// fresh jobs of every stream are the same universe items, so the quality
// guards summed over them do not depend on the seed.
func TestRepeatGuardJobsDoNotDependOnSeed(t *testing.T) {
	items := func(seed int64) map[int]string {
		s := newRepeatStream(seed, 2000)
		out := map[int]string{}
		for i := range s.guardEnd() {
			if s.guard(i) {
				out[s.Jobs[i].Item] = s.Progs[s.Jobs[i].Prog]
			}
		}
		return out
	}
	a, b := items(1), items(2)
	if len(a) != guardBlock || len(b) != guardBlock {
		t.Fatalf("guard jobs cover %d and %d items, want %d", len(a), len(b), guardBlock)
	}
	for u, src := range a {
		if b[u] != src {
			t.Fatalf("item %d differs between seeds 1 and 2", u)
		}
	}
}

func TestRepeatStreamOutgrowsResultCache(t *testing.T) {
	s := newRepeatStream(1, 1000)
	if distinct := len(s.Progs); distinct <= 256 {
		t.Errorf("first 1000 jobs use %d distinct programs, want more than the 256-entry result cache", distinct)
	}
}
