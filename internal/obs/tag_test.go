package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestTaggedEventWireFormat: a tagged event keeps the inner kind,
// gains a trace_id field, and still decodes to the inner typed event.
func TestTaggedEventWireFormat(t *testing.T) {
	inner := &NodeSpilled{Func: "main", Region: 2, Iter: 1, Regs: []string{"v3"}, Cost: 1.5, Degree: 4}
	tagged := &Tagged{TraceID: "job-17", Event: inner}

	if tagged.Kind() != inner.Kind() {
		t.Errorf("Kind = %q, want %q", tagged.Kind(), inner.Kind())
	}
	if txt := tagged.text(); !strings.HasPrefix(txt, "[job-17] ") {
		t.Errorf("text = %q, want [job-17] prefix", txt)
	}

	line, err := Encode(tagged)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatalf("tagged line is not an object: %v\n%s", err, line)
	}
	if raw["ev"] != "NodeSpilled" || raw["trace_id"] != "job-17" {
		t.Errorf("line = %s", line)
	}
	got, err := Decode(line)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, inner) {
		t.Errorf("decode of tagged line:\ngot  %#v\nwant %#v", got, inner)
	}
}

// TestTracerWithTag: sinks see tagged events, and every tagged-event
// line carries the ID.
func TestTracerWithTag(t *testing.T) {
	var jsonl bytes.Buffer
	col := &Collector{}
	tr := New(col, NewJSONLSink(&jsonl)).WithMetrics(NewMetrics()).WithTag("job-9")

	if tr.Tag() != "job-9" {
		t.Fatalf("Tag = %q", tr.Tag())
	}
	tr.Emit(&LoadEliminated{Func: "f", Action: "load-deleted", Slot: 8, Reg: "v1"})
	sp := tr.StartSpan("rap.color")
	sp.End()

	for i, ev := range col.Events() {
		tg, ok := ev.(*Tagged)
		if !ok {
			t.Fatalf("event %d not tagged: %#v", i, ev)
		}
		if tg.TraceID != "job-9" {
			t.Errorf("event %d trace id = %q", i, tg.TraceID)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		if !strings.Contains(line, `"trace_id":"job-9"`) {
			t.Errorf("JSONL line missing trace id: %s", line)
		}
	}

	// Tagging a nil or untagged-equal tracer is identity-ish and safe.
	var nilT *Tracer
	if nilT.WithTag("x") != nil {
		t.Error("WithTag on nil tracer is not nil")
	}
	if again := tr.WithTag("job-9"); again != tr {
		t.Error("WithTag with the same id should return the receiver")
	}
}
