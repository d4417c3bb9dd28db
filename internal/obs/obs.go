// Package obs is the pipeline's observability layer: a structured
// span/event tracer and a metrics registry the compiler phases report
// through.
//
// The tracer is nil-safe: a nil *Tracer (the default everywhere) is a
// no-op whose methods allocate nothing, so the allocators pay only a
// pointer comparison on their hot paths. Typed events (RegionColored,
// NodeSpilled, SpillHoisted, LoadEliminated, IterationRetried, ...) flow
// only to pluggable sinks — a human-readable text sink and a
// machine-readable JSONL sink ship with the package. Span timings
// accumulate in an attached Metrics registry, snapshotted to a stable
// JSON schema (see metrics.go); the counts of the decisions the events
// describe are written there by the allocators themselves.
//
// Call sites guard event construction with Enabled, so a tracer without
// sinks never materializes an event:
//
//	if tr.Enabled() {
//		tr.Emit(&obs.NodeSpilled{...})
//	}
package obs

import (
	"io"
	"sync"
	"time"
)

// Sink receives every event emitted through a Tracer. Implementations
// must be safe for concurrent use; the sinks in this package serialize
// internally.
type Sink interface {
	Emit(Event)
}

// Tracer fans events out to sinks and records span timings in an
// optional Metrics registry. The zero of *Tracer (nil) is a valid no-op
// tracer; all methods are nil-safe.
type Tracer struct {
	sinks []Sink
	m     *Metrics
	tag   string
}

// New returns a tracer emitting to the given sinks.
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// WithMetrics attaches a metrics registry: spans and timers record their
// duration under their phase name, and the pipeline's phases write their
// counters through it. It returns the tracer for chaining; calling it on
// a nil tracer returns a tracer that records metrics only.
func (t *Tracer) WithMetrics(m *Metrics) *Tracer {
	if t == nil {
		return &Tracer{m: m}
	}
	t.m = m
	return t
}

// Metrics returns the attached registry (nil if none).
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.m
}

// WithTag returns a tracer that stamps every emitted event with the
// given trace ID (the serve runner tags each job's tracer with the job
// ID, so JSONL trace lines and slow-job logs can be joined on it). Sinks and the metrics registry are shared with t; an empty id
// returns t unchanged, and a nil tracer stays nil — tagging a no-op
// tracer is still a no-op.
func (t *Tracer) WithTag(id string) *Tracer {
	if t == nil || id == "" || (t.tag == id) {
		return t
	}
	return &Tracer{sinks: t.sinks, m: t.m, tag: id}
}

// Tag returns the trace ID stamped on emitted events ("" if none).
func (t *Tracer) Tag() string {
	if t == nil {
		return ""
	}
	return t.tag
}

// Enabled reports whether a sink is attached: Emit delivers only to
// sinks, so call sites skip constructing events when it is false.
func (t *Tracer) Enabled() bool {
	return t != nil && len(t.sinks) > 0
}

// Emit delivers ev to every sink. When the tracer carries a trace tag
// (WithTag), sinks see the event wrapped in Tagged.
func (t *Tracer) Emit(ev Event) {
	if !t.Enabled() {
		return
	}
	if t.tag != "" {
		ev = &Tagged{TraceID: t.tag, Event: ev}
	}
	for _, s := range t.sinks {
		s.Emit(ev)
	}
}

// Span is an in-progress timed phase. A nil *Span (from a disabled
// tracer) is a valid no-op.
type Span struct {
	t     *Tracer
	phase string
	start time.Time
}

// StartSpan begins a timed phase. The phase name is dot-separated by
// convention ("parse", "rap.color", "interp"); the same name used twice
// accumulates in the metrics registry. Sinks see a SpanStart and a
// SpanEnd. Returns nil (a no-op span) on a tracer with neither sinks
// nor a registry.
func (t *Tracer) StartSpan(phase string) *Span {
	if !t.Enabled() && t.Metrics() == nil {
		return nil
	}
	if t.Enabled() {
		t.Emit(&SpanStart{Phase: phase})
	}
	return &Span{t: t, phase: phase, start: time.Now()}
}

// End completes the span, recording its duration both as a cumulative
// timing and as one sample in the phase's duration histogram.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.t.m.ObserveDur(s.phase, d)
	if s.t.Enabled() {
		s.t.Emit(&SpanEnd{Phase: s.phase, DurNS: d.Nanoseconds()})
	}
}

// noopStop is the shared no-op returned by StartTimer on a disabled
// tracer, so the hot path stays allocation-free.
var noopStop = func() {}

// StartTimer is the metrics-only sibling of StartSpan for hot inner
// phases: it records the elapsed time into the phase's cumulative
// timing and duration histogram when the stop func runs, but emits no
// events, so it is cheap enough for per-region and per-iteration
// granularity. On a tracer without a registry it returns a shared
// no-op and allocates nothing.
func (t *Tracer) StartTimer(phase string) func() {
	m := t.Metrics()
	if m == nil {
		return noopStop
	}
	start := time.Now()
	return func() { m.ObserveDur(phase, time.Since(start)) }
}

// TextSink renders events as human-readable lines, one per event — the
// format the old RAP_DEBUG stderr dump used, generalized to every event
// type.
type TextSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Emit writes one line describing ev.
func (s *TextSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	io.WriteString(s.w, ev.text())
	io.WriteString(s.w, "\n")
}

// JSONLSink renders events as JSON lines:
// {"ev":"<Kind>", ...fields}. Lines round-trip through Decode.
type JSONLSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONLSink returns a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit writes ev as one JSON line.
func (s *JSONLSink) Emit(ev Event) {
	b, err := Encode(ev)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Write(b)
	io.WriteString(s.w, "\n")
}

// Collector retains every emitted event in order — the sink behind
// rapcc's -explain and the package's own tests.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends ev.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns the collected events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}
