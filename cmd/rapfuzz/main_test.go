package main

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fuzz"
)

// fakeSeeds returns a run function over fake seeds: the seeds in fails
// fail and those in errs return their error, each after its delay, and
// the rest are clean. It records the seeds run.
func fakeSeeds(fails map[int64]bool, errs map[int64]error, delay map[int64]time.Duration) (func(context.Context, int64) (*fuzz.Failure, error), func() map[int64]bool) {
	var mu sync.Mutex
	ran := map[int64]bool{}
	run := func(_ context.Context, seed int64) (*fuzz.Failure, error) {
		mu.Lock()
		ran[seed] = true
		mu.Unlock()
		time.Sleep(delay[seed])
		if fails[seed] {
			return &fuzz.Failure{Seed: seed}, nil
		}
		return nil, errs[seed]
	}
	return run, func() map[int64]bool {
		mu.Lock()
		defer mu.Unlock()
		return ran
	}
}

// TestSweepReportsLowestFailure: with four workers, a failure found first
// at a higher seed gives way to a slower failure at a lower one, and the
// clean prefix ends at the reported seed. The sweep spans 2^40 seeds, so
// it returns only if the workers stop taking seeds past a failure.
func TestSweepReportsLowestFailure(t *testing.T) {
	run, _ := fakeSeeds(map[int64]bool{104: true, 107: true}, nil,
		map[int64]time.Duration{104: 20 * time.Millisecond})
	tested, fail, err := sweep(context.Background(), 100, 1<<40, 4, false, run)
	if err != nil || fail == nil || fail.Seed != 104 || tested != 4 {
		t.Fatalf("tested %d, failure %v, error %v; want 4, seed 104, nil", tested, fail, err)
	}
}

// TestSweepClean: a clean sweep tests every seed once.
func TestSweepClean(t *testing.T) {
	run, ran := fakeSeeds(nil, nil, map[int64]time.Duration{3: 5 * time.Millisecond})
	tested, fail, err := sweep(context.Background(), 0, 50, 4, false, run)
	if tested != 50 || fail != nil || err != nil || len(ran()) != 50 {
		t.Fatalf("tested %d of %d run, failure %v, error %v; want 50 clean", tested, len(ran()), fail, err)
	}
}

// TestSweepStopsAtCutOff: a seed the budget cut off ends the clean prefix
// and its error is returned, unless a higher seed that ran failed, which
// is then reported.
func TestSweepStopsAtCutOff(t *testing.T) {
	run, _ := fakeSeeds(nil, map[int64]error{10: context.DeadlineExceeded, 11: context.DeadlineExceeded}, nil)
	tested, fail, err := sweep(context.Background(), 0, 100, 2, false, run)
	if tested != 10 || fail != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("tested %d, failure %v, error %v; want 10, nil, deadline", tested, fail, err)
	}
	run, _ = fakeSeeds(map[int64]bool{5: true}, map[int64]error{3: context.DeadlineExceeded},
		map[int64]time.Duration{3: 20 * time.Millisecond})
	tested, fail, err = sweep(context.Background(), 0, 100, 4, false, run)
	if tested != 3 || fail == nil || fail.Seed != 5 || err != nil {
		t.Fatalf("tested %d, failure %v, error %v; want 3, seed 5, nil", tested, fail, err)
	}
}
