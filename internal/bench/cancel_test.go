package bench_test

// Cancellation contract: a cancelled context stops pending and in-flight
// (program, k) units — the next unit a worker takes fails on ctx, and no
// higher unit starts after it — and the harness goroutines all unwind.
// This pins the fuzz-surfaced hang where queued units kept churning after
// Ctrl-C.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func TestMeasureContextCanceled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	progs, ks, only := subset()

	// Already-cancelled context: nothing should run at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bench.MeasureContext(ctx, progs, ks, core.CompareConfig{Parallel: 4}, only...); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled measure error = %v, want context.Canceled", err)
	}

	// Cancel mid-run: with one worker most units have not started when
	// the cancel lands, so the sweep stops at the next unit it takes.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := bench.MeasureContext(ctx, progs, ks, core.CompareConfig{Parallel: 1}, only...)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// nil is possible only if the whole suite finished inside 10ms;
		// any error must be the cancellation.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel error = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled measure never returned")
	}

	// Every worker goroutine unwinds (manual leak check).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCompareContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := bench.ProgramByName("sieve").Source
	if _, err := core.CompareContext(ctx, src, []int{3, 5}, core.CompareConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled compare error = %v, want context.Canceled", err)
	}
}
