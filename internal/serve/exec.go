package serve

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/verify"
)

// ExecOptions carries the in-process-only execution knobs a JSON job
// cannot: the tracer sinks and the instruction-trace writer the CLI
// flags configure.
type ExecOptions struct {
	// Tracer observes the compilation (and, for run jobs, the
	// interpreter). nil is free.
	Tracer *obs.Tracer
	// InstrTrace, when non-nil, receives one line per executed
	// instruction (rapcc -trace).
	InstrTrace io.Writer
}

// Outcome is the in-process result of ExecuteJob — the compiled program
// and raw interpreter result, before Result flattens them for transport.
type Outcome struct {
	// Prog is the compiled (possibly allocated) program (ModeAlloc).
	Prog *ir.Program
	// Run is the interpreter result, nil for compile-only jobs.
	Run *interp.Result
	// Verified reports that the static verifier accepted the allocation.
	Verified bool
	// Measurements are the comparison rows (ModeCompare).
	Measurements []core.Measurement
}

// ExecuteJob is the one hardened execution core behind every path into
// the pipeline — served batches, stdin JSONL, and single-shot rapcc. It
// validates the job (typed errors), compiles, optionally verifies the
// allocation against the unallocated reference, and optionally runs the
// program under ctx; the caller decides isolation (the Runner wraps it
// in fuzz.RunIsolated, the CLI lets a crash surface).
func ExecuteJob(ctx context.Context, job Job, opts ExecOptions) (*Outcome, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch job.Mode {
	case "", ModeAlloc:
		return executeAlloc(ctx, job, opts)
	case ModeCompare:
		ccfg := job.compareConfig()
		ccfg.Trace = opts.Tracer
		ms, err := core.CompareContext(ctx, job.Source, job.ksOrDefault(), ccfg)
		if err != nil {
			return nil, err
		}
		return &Outcome{Measurements: ms, Verified: job.Verify}, nil
	}
	return nil, fmt.Errorf("%w: unknown mode %q", ErrBadJob, job.Mode)
}

func executeAlloc(ctx context.Context, job Job, opts ExecOptions) (*Outcome, error) {
	cfg := job.coreConfig()
	cfg.Trace = opts.Tracer
	p, err := core.Compile(job.Source, cfg)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Prog: p}
	if job.Verify && cfg.Allocator != core.AllocNone {
		refCfg := core.Config{Lower: cfg.Lower, Trace: opts.Tracer}
		ref, err := core.Compile(job.Source, refCfg)
		if err != nil {
			return nil, fmt.Errorf("reference compile: %w", err)
		}
		if err := verify.Program(ref, p, job.K, verify.Options{}); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		out.Verified = true
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if job.RunWanted() {
		res, err := interp.Run(p, interp.Options{
			MaxCycles: job.MaxCycles,
			Context:   ctx,
			Tracer:    opts.Tracer,
			Trace:     opts.InstrTrace,
		})
		if err != nil {
			return nil, fmt.Errorf("run: %w", err)
		}
		out.Run = res
	}
	return out, nil
}

// resultFromOutcome flattens an in-process outcome into the transport
// Result.
func resultFromOutcome(job Job, o *Outcome) Result {
	res := Result{ID: job.ID, Status: StatusOK, Verified: o.Verified, Measurements: o.Measurements}
	if o.Prog != nil {
		res.Code = o.Prog.String()
	}
	if o.Run != nil {
		res.Output = o.Run.Output
		res.Ret = o.Run.Ret
		total := o.Run.Total
		res.Total = &total
		res.PerFunc = make(map[string]interp.Stats, len(o.Run.PerFunc))
		for name, s := range o.Run.PerFunc {
			res.PerFunc[name] = *s
		}
	}
	return res
}

// Classify maps an execution error onto a job status. The distinctions
// matter to callers: invalid is the client's fault (400), timeout and
// canceled are scheduling outcomes, error is a pipeline failure (500
// class — and, given the verifier, possibly an allocator bug worth a
// reproducer).
func Classify(err error) string {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrBadJob),
		errors.Is(err, core.ErrBadSource),
		errors.Is(err, core.ErrBadAllocator),
		errors.Is(err, core.ErrBadK):
		return StatusInvalid
	case errors.Is(err, fuzz.ErrUnitTimeout), errors.Is(err, context.DeadlineExceeded):
		return StatusTimeout
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	default:
		return StatusError
	}
}
