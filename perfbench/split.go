package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/regalloc"
	"repro/internal/regalloc/chaitin"
	"repro/internal/regalloc/irc"
	"repro/internal/regalloc/rap"
	"repro/internal/sem"
	"repro/internal/testutil"
	"repro/internal/verify"
)

// Layer span names. Each names the package whose public function the
// span times.
const (
	spanOp     = "op"
	spanParse  = "parser"
	spanSem    = "sem"
	spanLower  = "lower"
	spanCheck  = "regalloc.check"
	spanVerify = "verify"
	spanInterp = "interp"
	spanDiff   = "diff"
	spanServe  = "serve"
)

func allocSpan(alloc string) string { return "alloc." + alloc }

// span is one timed call, in nanoseconds since the recorder started.
// Layer spans are children of their op's span.
type span struct {
	Op    int    `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// recorder runs the pipeline split into its layer calls and records a
// span around each call. Spans stay in memory until writeSpans. A
// recorder is used from one goroutine, so each call's heap allocation
// delta is the call's own.
type recorder struct {
	t0    time.Time
	spans []span
	op    int

	srcBytes  int64
	instrs    int64
	spillOps  map[string]int64
	verified  int64
	runs      int64
	cycles    int64
	interpMB  float64
	allocRead []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		t0:        time.Now(),
		spillOps:  map[string]int64{},
		allocRead: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// record closes a span that started at start.
func (r *recorder) record(name string, start int64) {
	r.spans = append(r.spans, span{Op: r.op, Name: name, Start: start, End: r.now()})
}

// beginOp starts op i's span; the returned func ends it.
func (r *recorder) beginOp(i int) func() {
	r.op = i
	start := r.now()
	return func() { r.record(spanOp, start) }
}

func (r *recorder) heapAllocs() uint64 {
	metrics.Read(r.allocRead)
	return r.allocRead[0].Value.Uint64()
}

// frontend is core.Frontend split into parser.Parse, sem.Check and
// lower.Lower.
func (r *recorder) frontend(src string) (*ir.Program, error) {
	start := r.now()
	prog, err := parser.Parse(src)
	r.record(spanParse, start)
	r.srcBytes += int64(len(src))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	start = r.now()
	err = sem.Check(prog)
	r.record(spanSem, start)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	start = r.now()
	p, err := lower.Lower(prog, lower.Options{})
	r.record(spanLower, start)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	for _, f := range p.Funcs {
		r.instrs += int64(staticSize(f))
	}
	return p, nil
}

// compile is core.Compile with the default configuration, split into
// the front end and one allocator call plus one regalloc.CheckPhysical
// call per function.
func (r *recorder) compile(src, alloc string, k int) (*ir.Program, error) {
	p, err := r.frontend(src)
	if err != nil || alloc == string(core.AllocNone) {
		return p, err
	}
	for _, f := range p.Funcs {
		start := r.now()
		switch alloc {
		case string(core.AllocGRA):
			err = chaitin.Allocate(f, k, chaitin.Options{})
		case string(core.AllocRAP):
			err = rap.Allocate(f, k, rap.Options{})
		case string(core.AllocIRC):
			err = irc.Allocate(f, k, irc.Options{})
		default:
			err = fmt.Errorf("allocator %q has no split pipeline", alloc)
		}
		r.record(allocSpan(alloc), start)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		start = r.now()
		err = regalloc.CheckPhysical(f)
		r.record(spanCheck, start)
		if err != nil {
			return nil, err
		}
		r.spillOps[alloc] += int64(staticSpillOps(f))
	}
	return p, nil
}

// verify is the static allocation verifier against the unallocated
// reference.
func (r *recorder) verify(ref, alloc *ir.Program, k int) error {
	start := r.now()
	err := verify.Program(ref, alloc, k, verify.Options{})
	r.record(spanVerify, start)
	r.verified++
	return err
}

// run is core.Run: one interpreter run with default options.
func (r *recorder) run(p *ir.Program) (*interp.Result, error) {
	before := r.heapAllocs()
	start := r.now()
	res, err := interp.Run(p, interp.Options{})
	r.record(spanInterp, start)
	r.interpMB += float64(r.heapAllocs()-before) / 1e6
	r.runs++
	if err == nil {
		r.cycles += res.Total.Cycles
	}
	return res, err
}

// diff is the differential check of a run against its reference.
func (r *recorder) diff(ref, got *interp.Result) error {
	start := r.now()
	err := testutil.SameBehaviour(ref, got)
	r.record(spanDiff, start)
	return err
}

// busy sums the durations of the spans with the given name.
func (r *recorder) busy(name string) time.Duration {
	var d int64
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// durationsMS lists the durations of the spans with the given name.
func (r *recorder) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans writes every recorded span as one JSON line.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// staticSpillOps counts the spill loads and stores in a routine.
func staticSpillOps(f *ir.Function) int {
	n := 0
	for _, in := range f.Instrs {
		if in.Op == ir.OpLdSpill || in.Op == ir.OpStSpill {
			n++
		}
	}
	return n
}

// staticSize counts a routine's instructions, labels excluded.
func staticSize(f *ir.Function) int {
	n := 0
	for _, in := range f.Instrs {
		if in.Op != ir.OpLabel {
			n++
		}
	}
	return n
}
