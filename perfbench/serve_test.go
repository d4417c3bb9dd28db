package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServeCompileRejected spot-checks that universe items outside the
// rejected list compile and verify; with -update it screens the whole
// universe and rewrites the list.
func TestServeCompileRejected(t *testing.T) {
	exec := func(u int) error {
		_, err := serve.ExecuteJob(context.Background(), compileItem(u), serve.ExecOptions{})
		return err
	}
	if !*update {
		for u, n := 0, 0; n < 60; u++ {
			if compileRejected[u] {
				continue
			}
			n++
			if err := exec(u); err != nil {
				t.Errorf("universe item %d: %v", u, err)
			}
		}
		return
	}
	failed := make([]bool, compileUniverse)
	var wg sync.WaitGroup
	for w := range serveWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := w; u < compileUniverse; u += serveWorkers {
				failed[u] = exec(u) != nil
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	b.WriteString("# serve-compile universe items whose allocation verify.Program rejects at the\n")
	b.WriteString("# seed commit (regenerate with: go test -run TestServeCompileRejected -update).\n")
	for u, f := range failed {
		if f {
			fmt.Fprintln(&b, u)
		}
	}
	if err := os.WriteFile("expected/serve-compile-rejected.txt", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServeRepeatRuns runs serve-repeat untraced and traced for their
// minimum number of jobs and checks every gate passes and the workload
// reaches the cache, the store and the region memo.
func TestServeRepeatRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs over a thousand serve jobs")
	}
	c := runConfig{seed: 1, workDir: t.TempDir(), log: io.Discard}
	rec, err := runServeRepeat(c)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 || rec.Attempted < guardBlock {
		t.Fatalf("untraced: %d of %d jobs failed", rec.Failed, rec.Attempted)
	}
	for _, name := range []string{"serve.cache.hit_ratio", "rap.memo.hit_ratio", "exec_mcycles"} {
		if rec.Extra[name] <= 0 {
			t.Errorf("untraced: %s = %v, want > 0", name, rec.Extra[name])
		}
	}
	c.window = time.Duration(0)
	rec, err = traceServeRepeat(c)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 || rec.Attempted < minTraceOps {
		t.Fatalf("traced: %d of %d jobs failed", rec.Failed, rec.Attempted)
	}
	for _, name := range []string{"serve.cache.hit_ratio", "interp.runs", "alloc.rap.ms", "store.writes"} {
		if rec.Metrics[name].Value <= 0 {
			t.Errorf("traced: %s = %v, want > 0", name, rec.Metrics[name].Value)
		}
	}
}
