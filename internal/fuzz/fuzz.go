// Package fuzz is the differential correctness harness: it drives
// randomly generated MiniC programs (internal/randprog) through every
// allocator at several register set sizes, executes each allocation on
// the counting interpreter, compares observable behaviour against the
// unallocated reference, and statically verifies every allocation with
// internal/verify. A failing case is shrunk to a minimal reproducer.
//
// Each (allocator, k) unit runs isolated: panics inside the pipeline are
// recovered into errors, and a per-case timeout bounds non-terminating
// compilations or runs, so one bad case cannot take down a fuzz session.
package fuzz

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/randprog"
	"repro/internal/testutil"
	"repro/internal/verify"
)

// Config parameterizes a fuzz session.
type Config struct {
	// Gen configures the program generator.
	Gen randprog.Config
	// Ks are the register set sizes exercised (default 3, 5, 7, 9).
	Ks []int
	// Allocators are the strategies compared (default gra, rap, irc,
	// naive).
	Allocators []core.Allocator
	// CaseTimeout bounds one (allocator, k) compile+run+verify unit
	// (default 30s).
	CaseTimeout time.Duration
	// MaxCycles bounds each interpreter run (default 50 million — random
	// programs are small; a runaway allocation error loops, it does not
	// compute).
	MaxCycles int64
	// Verify runs the static allocation verifier on every allocation in
	// addition to the differential behaviour check (default on in
	// Default()).
	Verify bool
	// Metrics, when non-nil, receives fuzz.cases / fuzz.failures /
	// fuzz.shrink.lines counters.
	Metrics *obs.Metrics
	// Mutate, when non-nil, is applied to each allocated program before
	// it is run and verified — a fault-injection hook for testing the
	// harness itself.
	Mutate func(*ir.Program)
}

// Default returns the standard fuzzing configuration.
func Default() Config {
	return Config{
		Gen:         randprog.DefaultConfig(),
		Ks:          []int{3, 5, 7, 9},
		Allocators:  []core.Allocator{core.AllocGRA, core.AllocRAP, core.AllocIRC, core.AllocNaive},
		CaseTimeout: 30 * time.Second,
		MaxCycles:   50_000_000,
		Verify:      true,
	}
}

func (cfg *Config) fill() {
	d := Default()
	if len(cfg.Ks) == 0 {
		cfg.Ks = d.Ks
	}
	if len(cfg.Allocators) == 0 {
		cfg.Allocators = d.Allocators
	}
	if cfg.CaseTimeout == 0 {
		cfg.CaseTimeout = d.CaseTimeout
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = d.MaxCycles
	}
}

// Failure describes one failing (seed, allocator, k) case.
type Failure struct {
	Seed      int64
	Allocator core.Allocator
	K         int
	// Err is the first failure observed (compile error, behaviour
	// divergence, verifier rejection, recovered panic, or timeout).
	Err error
	// Src is the full generated program; Shrunk is the minimal source
	// (by line removal) that still fails the same (allocator, k) case.
	Src    string
	Shrunk string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("seed %d %s k=%d: %v", f.Seed, f.Allocator, f.K, f.Err)
}

// RunSeed generates the program for seed and checks the full
// (allocator, k) matrix against the unallocated reference (compiled and
// executed once per seed). It returns the first failure (shrunk), nil if
// the seed is clean, or ctx's error if the session was cancelled.
func RunSeed(ctx context.Context, seed int64, cfg Config) (*Failure, error) {
	cfg.fill()
	src := randprog.Generate(seed, cfg.Gen)
	var ref refRun
	if err := RunIsolated(ctx, cfg.CaseTimeout, func(cctx context.Context) error {
		return ref.build(cctx, src, cfg)
	}); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// A reference failure is a generator or front-end bug, not an
		// allocator one — report it against the first configured case.
		cfg.Metrics.Add("fuzz.failures", 1)
		return &Failure{Seed: seed, Allocator: cfg.Allocators[0], K: cfg.Ks[0], Err: err, Src: src}, nil
	}
	for _, ac := range cfg.Allocators {
		for _, k := range cfg.Ks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cfg.Metrics.Add("fuzz.cases", 1)
			ac, k := ac, k
			err := RunIsolated(ctx, cfg.CaseTimeout, func(cctx context.Context) error {
				return checkAlloc(cctx, src, &ref, ac, k, cfg)
			})
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				cfg.Metrics.Add("fuzz.failures", 1)
				f := &Failure{Seed: seed, Allocator: ac, K: k, Err: err, Src: src}
				f.Shrunk = Shrink(ctx, src, ac, k, cfg)
				return f, nil
			}
		}
	}
	return nil, nil
}

// refRun is a compiled and executed unallocated reference.
type refRun struct {
	prog *ir.Program
	res  *interp.Result
}

func (r *refRun) build(ctx context.Context, src string, cfg Config) error {
	prog, err := core.Compile(src, core.Config{})
	if err != nil {
		return fmt.Errorf("reference compile: %w", err)
	}
	res, err := interp.Run(prog, interp.Options{MaxCycles: cfg.MaxCycles, Context: ctx})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	r.prog, r.res = prog, res
	return nil
}

// ErrUnitTimeout marks a unit that exceeded its RunIsolated timeout, so
// callers (the fuzz loop, the allocation service) can classify the
// failure without string matching. The returned error also wraps
// context.DeadlineExceeded.
var ErrUnitTimeout = errors.New("unit timed out")

// RunIsolated runs one unit of pipeline work in its own goroutine,
// recovering panics into errors and bounding the unit with timeout
// (0 means no deadline beyond ctx's own), so a crashing or
// non-terminating unit is charged to that unit alone. It is the
// isolation boundary shared by the fuzz harness and the allocation
// service: the unit receives a context it must poll (the interpreter and
// the Compare phases do), and on timeout RunIsolated returns an error
// wrapping ErrUnitTimeout while the worker goroutine unwinds on its own
// at the next poll.
func RunIsolated(ctx context.Context, timeout time.Duration, unit func(context.Context) error) error {
	cctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		done <- unit(cctx)
	}()
	select {
	case err := <-done:
		return err
	case <-cctx.Done():
		// The worker goroutine observes cctx at its next interpreter poll
		// or phase boundary and exits on its own; the unit is charged now.
		if timeout > 0 && errors.Is(cctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("%w after %s: %w", ErrUnitTimeout, timeout, cctx.Err())
		}
		return cctx.Err()
	}
}

// checkAlloc is the differential check for one (allocator, k) unit:
// compile, statically verify, run, compare behaviour to the reference.
func checkAlloc(ctx context.Context, src string, ref *refRun, ac core.Allocator, k int, cfg Config) error {
	alloc, err := core.Compile(src, core.Config{Allocator: ac, K: k})
	if err != nil {
		return fmt.Errorf("%s k=%d compile: %w", ac, k, err)
	}
	if cfg.Mutate != nil {
		cfg.Mutate(alloc)
	}
	if cfg.Verify {
		if err := verify.Program(ref.prog, alloc, k, verify.Options{}); err != nil {
			return fmt.Errorf("%s k=%d: %w", ac, k, err)
		}
	}
	res, err := interp.Run(alloc, interp.Options{MaxCycles: cfg.MaxCycles, Context: ctx})
	if err != nil {
		return fmt.Errorf("%s k=%d run: %w", ac, k, err)
	}
	if err := testutil.SameBehaviour(ref.res, res); err != nil {
		return fmt.Errorf("%s k=%d changed behaviour: %w", ac, k, err)
	}
	return nil
}

// Shrink reduces a failing source to a minimal reproducer by greedy
// line removal: repeatedly drop each line (and each contiguous pair)
// and keep any candidate that still fails the same (allocator, k) case.
// Candidates that no longer compile do not count as failing, so the
// result is always a well-formed program.
func Shrink(ctx context.Context, src string, ac core.Allocator, k int, cfg Config) string {
	cfg.fill()
	fails := func(cand string) bool {
		if ctx.Err() != nil {
			return false
		}
		err := RunIsolated(ctx, cfg.CaseTimeout, func(cctx context.Context) error {
			var ref refRun
			if err := ref.build(cctx, cand, cfg); err != nil {
				return nil // not a well-formed candidate; keep the failure elsewhere
			}
			return checkAlloc(cctx, cand, &ref, ac, k, cfg)
		})
		return err != nil
	}
	lines := strings.Split(src, "\n")
	for pass, reduced := 0, true; reduced && pass < 16; pass++ {
		reduced = false
		for width := 2; width >= 1; width-- {
			for i := 0; i+width <= len(lines); i++ {
				cand := make([]string, 0, len(lines)-width)
				cand = append(cand, lines[:i]...)
				cand = append(cand, lines[i+width:]...)
				if fails(strings.Join(cand, "\n")) {
					lines = cand
					reduced = true
					i--
				}
			}
		}
	}
	out := strings.Join(lines, "\n")
	cfg.Metrics.Add("fuzz.shrink.lines", int64(len(lines)))
	return out
}
