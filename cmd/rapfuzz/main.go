// Command rapfuzz is the differential fuzz driver: it generates random
// MiniC programs, compiles each under every allocator at several
// register set sizes, executes the allocations, checks behaviour against
// the unallocated reference, statically verifies every allocation, and
// prints a shrunk reproducer for any failure.
//
//	rapfuzz -seeds 200 -timeout 60s
//
// Seeds run on GOMAXPROCS workers (fuzz.Sweep), taken in ascending
// order. With -v each seed is logged as a worker starts it, so lines of
// concurrent workers may trade places. The failure reported is the lowest
// failing seed among those tested, and "stopped after N seeds" counts the
// seeds before the first one the budget cut off.
//
// Exit status 0 means every case passed; 1 means a failure was found (a
// reproducer is printed); 2 means a usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	seeds := flag.Int64("seeds", 200, "number of generator seeds to test")
	seedStart := flag.Int64("seed-start", 0, "first seed (a CI shard can partition the space)")
	timeout := flag.Duration("timeout", 0, "total session budget (0 = unlimited); a clean partial sweep still exits 0")
	caseTimeout := flag.Duration("case-timeout", 30*time.Second, "budget for one (allocator, k) case")
	ksFlag := flag.String("ks", "3,5,7,9", "comma-separated register set sizes")
	allocsFlag := flag.String("allocs", "gra,rap,irc,naive", "comma-separated allocators to test (from: "+core.AllocatorNames()+")")
	noVerify := flag.Bool("no-verify", false, "skip the static allocation verifier (differential check only)")
	metricsOut := flag.Bool("metrics", false, "print the metrics snapshot (cases, failures) on exit")
	verbose := flag.Bool("v", false, "log each seed as it is tested")
	flag.Parse()

	ks, err := core.ParseKs(*ksFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rapfuzz:", err)
		return 2
	}
	var allocs []core.Allocator
	for _, name := range strings.Split(*allocsFlag, ",") {
		a, err := core.ParseAllocator(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rapfuzz:", err)
			return 2
		}
		if a != core.AllocNone {
			allocs = append(allocs, a)
		}
	}
	if len(allocs) == 0 {
		fmt.Fprintln(os.Stderr, "rapfuzz: no allocators selected")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	metrics := obs.NewMetrics()
	cfg := fuzz.Default()
	cfg.Ks = ks
	cfg.Allocators = allocs
	cfg.CaseTimeout = *caseTimeout
	cfg.Verify = !*noVerify
	cfg.Metrics = metrics

	start := time.Now()
	tested, fail, err := sweep(ctx, *seedStart, *seeds, runtime.GOMAXPROCS(0), *verbose,
		func(ctx context.Context, seed int64) (*fuzz.Failure, error) { return fuzz.RunSeed(ctx, seed, cfg) })
	if fail != nil {
		// The trace ID names the failing case the way a serve job
		// would be named.
		traceID := fmt.Sprintf("fuzz-%d-%s-k%d", fail.Seed, fail.Allocator, fail.K)
		fmt.Fprintf(os.Stderr, "rapfuzz: FAILURE: %v\n", fail)
		fmt.Fprintf(os.Stderr, "trace id: %s\n", traceID)
		fmt.Fprintf(os.Stderr, "\nreproducer (%d lines):\n%s\n", len(strings.Split(fail.Shrunk, "\n")), fail.Shrunk)
		fmt.Fprintf(os.Stderr, "\nrerun: rapfuzz -seed-start %d -seeds 1 -ks %d -allocs %s\n", fail.Seed, fail.K, fail.Allocator)
		return 1
	}
	if err != nil {
		// Session cancelled or out of budget: a partial clean sweep is
		// still a pass (CI bounds the job by wall clock, not by seeds).
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "rapfuzz:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "rapfuzz: stopped after %d seeds (%v)\n", tested, err)
	}
	snap := metrics.Snapshot()
	fmt.Fprintf(os.Stderr, "rapfuzz: %d seeds clean in %s (%d cases)\n",
		tested, time.Since(start).Round(time.Millisecond), snap.Counters["fuzz.cases"])
	if *metricsOut {
		if err := snap.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rapfuzz:", err)
			return 2
		}
	}
	return 0
}

// sweep tests seeds start .. start+n-1 with run through fuzz.Sweep on
// workers goroutines, which take seeds in ascending order (with verbose
// set, each is logged as a worker starts it). A seed that fails or errs
// stops the workers taking any higher seed. sweep returns the number of
// seeds before the first that did not come back clean, the failure of the
// lowest failing seed, and, when no seed failed, the error of the lowest
// seed that returned one.
func sweep(ctx context.Context, start, n int64, workers int, verbose bool,
	run func(context.Context, int64) (*fuzz.Failure, error)) (tested int64, fail *fuzz.Failure, err error) {
	var (
		mu                sync.Mutex
		failSeed, errSeed int64
	)
	tested = fuzz.Sweep(n, workers, func(i int64) bool {
		seed := start + i
		if verbose {
			fmt.Fprintf(os.Stderr, "rapfuzz: seed %d\n", seed)
		}
		f, e := run(ctx, seed)
		mu.Lock()
		defer mu.Unlock()
		if f != nil && (fail == nil || seed < failSeed) {
			failSeed, fail = seed, f
		}
		if e != nil && (err == nil || seed < errSeed) {
			errSeed, err = seed, e
		}
		return f == nil && e == nil
	})
	if fail != nil {
		err = nil
	}
	return tested, fail, err
}
