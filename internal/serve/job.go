// Package serve is the batch-allocation service layer: a hardened job
// runner (bounded worker pool, per-job timeouts, panic isolation, a
// content-addressed result cache) shared by the long-running daemon
// (cmd/rapserved), the offline JSONL batch mode, and the single-shot
// commands (rapcc, rapbench), plus the HTTP surface the daemon exposes.
//
// A job names a MiniC program, an allocator and a register set size (or,
// in compare mode, the set of sizes to run the paper's GRA-vs-RAP
// comparison over). Execution routes through the same internal/core
// pipeline the CLI uses, so a served result is byte-identical to the
// single-shot one for the same inputs — which is also what makes results
// safely cacheable: the pipeline is a pure function of (source, options).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lower"
	"repro/internal/regalloc/rap"
)

// Schema names the JSON schema jobs and results serialize to. Bump it
// when a field changes meaning; additions are backward compatible.
const Schema = "rap/serve/v1"

// Job modes.
const (
	// ModeAlloc compiles (and by default runs) one program under one
	// allocator at one register set size.
	ModeAlloc = "alloc"
	// ModeCompare runs the paper's GRA-vs-RAP comparison over Ks and
	// returns per-routine measurements.
	ModeCompare = "compare"
)

// ErrBadJob reports a request that names an unrunnable job — unknown
// mode, missing source, bad allocator or register set size. The HTTP
// layer maps it (and core's typed validation errors) to 400.
var ErrBadJob = errors.New("bad job")

// Job is one unit of service work: a program plus the pipeline
// configuration to run it under.
type Job struct {
	// ID is the caller's correlation key, echoed in the Result.
	ID string `json:"id,omitempty"`
	// Source is the MiniC program text.
	Source string `json:"source"`
	// Mode is ModeAlloc (default) or ModeCompare.
	Mode string `json:"mode,omitempty"`
	// Allocator is one of core.AllocatorNames(): none, gra, rap, naive or
	// irc (ModeAlloc; default none).
	Allocator string `json:"allocator,omitempty"`
	// K is the register set size (ModeAlloc; required unless Allocator
	// is none/empty).
	K int `json:"k,omitempty"`
	// Ks are the register set sizes compared (ModeCompare; default
	// 3,5,7,9).
	Ks []int `json:"ks,omitempty"`
	// Funcs restricts ModeCompare measurement to these routines
	// (default: all executed).
	Funcs []string `json:"funcs,omitempty"`
	// Run executes the allocated program on the counting interpreter
	// (ModeAlloc; default true — set to false for compile-only jobs).
	Run *bool `json:"run,omitempty"`
	// Verify additionally runs the static allocation verifier against
	// the unallocated reference.
	Verify bool `json:"verify,omitempty"`
	// MergeStmts, Coalesce, Rematerialize, RAPNoMotion and RAPNoPeephole
	// mirror the rapcc ablation/extension flags.
	MergeStmts    bool `json:"merge_stmts,omitempty"`
	Coalesce      bool `json:"coalesce,omitempty"`
	Rematerialize bool `json:"remat,omitempty"`
	RAPNoMotion   bool `json:"rap_no_motion,omitempty"`
	RAPNoPeephole bool `json:"rap_no_peephole,omitempty"`
	// TimeoutMS bounds this job's wall clock. The runner clamps it to
	// its configured maximum; 0 means the runner's default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxCycles bounds each interpreter run. The runner clamps it to its
	// configured ceiling; 0 means the ceiling.
	MaxCycles int64 `json:"max_cycles,omitempty"`
}

// RunWanted reports whether the job asks for interpreter execution
// (ModeAlloc only; the default is yes).
func (j *Job) RunWanted() bool { return j.Run == nil || *j.Run }

// Validate reports whether the job names runnable work, wrapping every
// rejection in ErrBadJob (plus core's finer-grained sentinels where one
// applies) so transports can answer 400 without string matching.
// Source problems are found later, at compile time, as core.ErrBadSource.
func (j *Job) Validate() error {
	if strings.TrimSpace(j.Source) == "" {
		return fmt.Errorf("%w: empty source", ErrBadJob)
	}
	switch j.Mode {
	case "", ModeAlloc:
		ac, err := core.ParseAllocator(j.Allocator)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadJob, err)
		}
		if err := (core.Config{Allocator: ac, K: j.K}).Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrBadJob, err)
		}
	case ModeCompare:
		for _, k := range j.Ks {
			if err := (core.Config{Allocator: core.AllocRAP, K: k}).Validate(); err != nil {
				return fmt.Errorf("%w: %w", ErrBadJob, err)
			}
		}
	default:
		return fmt.Errorf("%w: unknown mode %q (want %q or %q)", ErrBadJob, j.Mode, ModeAlloc, ModeCompare)
	}
	if j.TimeoutMS < 0 {
		return fmt.Errorf("%w: negative timeout_ms", ErrBadJob)
	}
	if j.MaxCycles < 0 {
		return fmt.Errorf("%w: negative max_cycles", ErrBadJob)
	}
	return nil
}

// coreConfig maps an alloc-mode job onto the pipeline configuration.
func (j *Job) coreConfig() core.Config {
	ac, _ := core.ParseAllocator(j.Allocator)
	return core.Config{
		Allocator:     ac,
		K:             j.K,
		Lower:         lower.Options{MergeStatements: j.MergeStmts},
		RAP:           rap.Options{DisableSpillMotion: j.RAPNoMotion, DisablePeephole: j.RAPNoPeephole},
		Coalesce:      j.Coalesce,
		Rematerialize: j.Rematerialize,
	}
}

// compareConfig maps a compare-mode job onto the comparison
// configuration.
func (j *Job) compareConfig() core.CompareConfig {
	return core.CompareConfig{
		Lower:         lower.Options{MergeStatements: j.MergeStmts},
		RAP:           rap.Options{DisableSpillMotion: j.RAPNoMotion, DisablePeephole: j.RAPNoPeephole},
		Coalesce:      j.Coalesce,
		Rematerialize: j.Rematerialize,
		Verify:        j.Verify,
		Funcs:         j.Funcs,
	}
}

// ksOrDefault returns the compare sizes, defaulting to the paper's.
func (j *Job) ksOrDefault() []int {
	if len(j.Ks) > 0 {
		return j.Ks
	}
	return []int{3, 5, 7, 9}
}

// CacheKey is the job's content address: a hash over every input that
// determines the result — the source text and the full pipeline
// configuration — and nothing that does not (ID, timeout). Two jobs with
// equal keys produce identical results, because the pipeline is a
// deterministic function of exactly these fields.
func (j *Job) CacheKey() string {
	h := sha256.New()
	w := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0}) // unambiguous field separator
		}
	}
	b := func(v bool) string { return strconv.FormatBool(v) }
	mode := j.Mode
	if mode == "" {
		mode = ModeAlloc
	}
	w(Schema, mode, strings.ToLower(strings.TrimSpace(j.Allocator)), strconv.Itoa(j.K))
	for _, k := range j.ksOrDefault() {
		w(strconv.Itoa(k))
	}
	w(strings.Join(j.Funcs, ","))
	w(b(j.RunWanted()), b(j.Verify), b(j.MergeStmts), b(j.Coalesce), b(j.Rematerialize), b(j.RAPNoMotion), b(j.RAPNoPeephole))
	w(strconv.FormatInt(j.MaxCycles, 10))
	w(j.Source)
	return hex.EncodeToString(h.Sum(nil))
}

// Job statuses.
const (
	// StatusOK: the job ran to completion.
	StatusOK = "ok"
	// StatusInvalid: the request itself was malformed (bad job fields or
	// source the front end rejected) — the caller's fault, HTTP 400 class.
	StatusInvalid = "invalid"
	// StatusTimeout: the job exceeded its per-job deadline.
	StatusTimeout = "timeout"
	// StatusCanceled: the batch's context was cancelled before or while
	// the job ran (client went away, server draining).
	StatusCanceled = "canceled"
	// StatusError: the pipeline failed on a well-formed request —
	// allocator error, verifier rejection, or a recovered panic.
	StatusError = "error"
)

// Result is the outcome of one job.
type Result struct {
	ID     string `json:"id,omitempty"`
	Status string `json:"status"`
	// Error is the failure detail for non-ok statuses.
	Error string `json:"error,omitempty"`
	// Cached reports a content-addressed cache hit: the payload was
	// produced by an earlier identical job.
	Cached bool `json:"cached,omitempty"`
	// DurationMS is the wall clock this execution took (the original
	// run's for cache hits).
	DurationMS int64 `json:"duration_ms"`
	// Code is the (possibly allocated) iloc text (ModeAlloc).
	Code string `json:"code,omitempty"`
	// Output, Ret, Total and PerFunc report the interpreter run
	// (ModeAlloc with run).
	Output  []string                `json:"output,omitempty"`
	Ret     int64                   `json:"ret,omitempty"`
	Total   *interp.Stats           `json:"total,omitempty"`
	PerFunc map[string]interp.Stats `json:"per_func,omitempty"`
	// Verified reports that the static allocation verifier accepted the
	// allocation (only meaningful when the job asked for verification).
	Verified bool `json:"verified,omitempty"`
	// Measurements are the per-routine comparison rows (ModeCompare).
	Measurements []core.Measurement `json:"measurements,omitempty"`
}
