package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// allEvents returns one populated instance of every event type; tests
// iterate it so a new event type cannot be added without joining the
// round-trip coverage.
func allEvents() []Event {
	return []Event{
		&SpanStart{Phase: "rap.color"},
		&SpanEnd{Phase: "rap.color", DurNS: 12345},
		&RegionColored{Func: "main", Region: 3, RegionKind: "loop", Iter: 1, Nodes: 7, Colors: 5,
			Assigned: []RegColor{{Reg: "r2", Color: 1}, {Reg: "r4", Color: 3}}},
		&NodeSpilled{Func: "main", Region: 3, Iter: 1, Regs: []string{"r7", "r9"}, Cost: 1.75, Degree: 6, Global: true},
		&IterationRetried{Func: "main", Region: 3, Iter: 1, Spilled: 2},
		&SpillHoisted{Func: "main", Loop: 3, Parent: 1, Slot: 2, Reg: "r7", Loads: 4, Stores: 1},
		&LoadEliminated{Func: "main", Action: "load-to-copy", Slot: 2, Reg: "r7"},
	}
}

// TestNoopTracerZeroAlloc pins the hard requirement that a disabled
// tracer costs the hot path nothing: no allocations from spans, guarded
// emits, or metrics calls on the nil defaults.
func TestNoopTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	var m *Metrics
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("rap.color")
		if tr.Enabled() {
			tr.Emit(&IterationRetried{Func: "f", Region: 1, Iter: 0, Spilled: 1})
		}
		sp.End()
		m.Add("rap.spill_rounds", 1)
		m.Observe("rap.color", time.Millisecond)
		m.ObserveVal("rap.region.iters", 3)
		m.ObserveDur("rap.phase.cost", time.Millisecond)
		m.SetGauge("serve.inflight", 1)
		stop := tr.StartTimer("rap.phase.build")
		stop()
		_ = tr.WithTag("job-1")
	})
	if allocs != 0 {
		t.Fatalf("no-op tracer allocated %.1f times per run, want 0", allocs)
	}
}

func TestJSONLRoundTripAllEventTypes(t *testing.T) {
	for _, ev := range allEvents() {
		line, err := Encode(ev)
		if err != nil {
			t.Fatalf("%s: encode: %v", ev.Kind(), err)
		}
		got, err := Decode(line)
		if err != nil {
			t.Fatalf("%s: decode %s: %v", ev.Kind(), line, err)
		}
		if !reflect.DeepEqual(ev, got) {
			t.Errorf("%s: round trip changed the event:\nsent %#v\ngot  %#v\nline %s", ev.Kind(), ev, got, line)
		}
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte(`{"ev":"NoSuchEvent"}`)); err == nil {
		t.Fatal("decoding an unknown kind succeeded")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
}

func TestJSONLSinkWritesDecodableLines(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	for _, ev := range allEvents() {
		tr.Emit(ev)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(allEvents()) {
		t.Fatalf("sink wrote %d lines, want %d", len(lines), len(allEvents()))
	}
	for i, l := range lines {
		ev, err := Decode([]byte(l))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev.Kind() != allEvents()[i].Kind() {
			t.Errorf("line %d: kind %s, want %s", i, ev.Kind(), allEvents()[i].Kind())
		}
	}
}

func TestTextSinkMentionsTheRegisters(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewTextSink(&buf))
	tr.Emit(&NodeSpilled{Func: "main", Region: 2, Iter: 0, Regs: []string{"r7"}, Cost: 0.5, Degree: 3})
	if got := buf.String(); !strings.Contains(got, "r7") || !strings.Contains(got, "SPILL") {
		t.Errorf("text sink output %q lacks the spill line", got)
	}
}

// TestTracerMetricsRecordSpansOnly: a metrics-only tracer is not
// Enabled, Emit writes nothing to its registry, and spans still record
// their duration there.
func TestTracerMetricsRecordSpansOnly(t *testing.T) {
	m := NewMetrics()
	tr := New().WithMetrics(m)
	if tr.Enabled() {
		t.Fatal("tracer without sinks reports Enabled")
	}
	sp := tr.StartSpan("parse")
	tr.Emit(&SpillHoisted{Func: "f", Loop: 1, Parent: 0, Slot: 0, Reg: "r1"})
	tr.Emit(&SpillHoisted{Func: "f", Loop: 2, Parent: 0, Slot: 1, Reg: "r2"})
	sp.End()
	snap := m.Snapshot()
	if snap.Schema != SnapshotSchema {
		t.Errorf("schema %q, want %q", snap.Schema, SnapshotSchema)
	}
	if len(snap.Counters) != 0 {
		t.Errorf("events wrote counters: %v", snap.Counters)
	}
	if _, ok := snap.TimingsNS["parse"]; !ok {
		t.Errorf("no timing recorded for span %q: %v", "parse", snap.TimingsNS)
	}
	if h := snap.TimeHistsNS["parse"]; h.Count != 1 {
		t.Errorf("span %q duration histogram has %d samples, want 1", "parse", h.Count)
	}
}

func TestExplainFollowsOneRegister(t *testing.T) {
	events := []Event{
		&NodeSpilled{Func: "main", Region: 2, Iter: 0, Regs: []string{"r7"}, Cost: 0.5, Degree: 3},
		&SpillHoisted{Func: "main", Loop: 2, Parent: 1, Slot: 0, Reg: "r7", Loads: 2, Stores: 1},
		&RegionColored{Func: "main", Region: 0, RegionKind: "entry", Iter: 1, Nodes: 4, Colors: 3,
			Assigned: []RegColor{{Reg: "r12", Color: 2}}},
		&LoadEliminated{Func: "main", Action: "load-deleted", Slot: 0, Reg: "r7"},
	}
	out := Explain(events, "r7")
	for _, want := range []string{"spilled", "hoisted out of loop region 2", "load-deleted"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "coloured 2") {
		t.Errorf("explain for r7 leaked r12's colouring:\n%s", out)
	}
	if out := Explain(events, "r99"); !strings.Contains(out, "no allocation events") {
		t.Errorf("explain of unknown register: %q", out)
	}
}
