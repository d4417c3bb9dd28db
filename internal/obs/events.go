package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Event is a structured record of one pipeline decision or phase
// boundary. Every implementation is a pointer to a flat struct so the
// JSONL encoding round-trips through Decode.
type Event interface {
	// Kind is the stable type tag used in the JSONL "ev" field.
	Kind() string
	// text renders the event for the human sink.
	text() string
}

// SpanStart marks the beginning of a timed phase.
type SpanStart struct {
	Phase string `json:"phase"`
}

// SpanEnd marks the end of a timed phase with its wall-clock duration.
type SpanEnd struct {
	Phase string `json:"phase"`
	DurNS int64  `json:"dur_ns"`
}

// RegColor records one virtual register's colour in a successful region
// colouring (colours are 1-based; the entry region's colouring is the
// physical assignment, register R<color-1>).
type RegColor struct {
	Reg   string `json:"reg"`
	Color int    `json:"color"`
}

// RegionColored reports a region whose interference graph coloured
// successfully (§3.1; for GRA the whole function is one "region" with
// Region -1).
type RegionColored struct {
	Func       string     `json:"func"`
	Region     int        `json:"region"`
	RegionKind string     `json:"region_kind"`
	Iter       int        `json:"iter"`
	Nodes      int        `json:"nodes"`
	Colors     int        `json:"colors"`
	Assigned   []RegColor `json:"assigned,omitempty"`
}

// NodeSpilled reports an interference-graph node chosen for spilling
// (§3.1.4), with the Fig. 5 inputs that made it the cheapest victim.
type NodeSpilled struct {
	Func   string   `json:"func"`
	Region int      `json:"region"`
	Iter   int      `json:"iter"`
	Regs   []string `json:"regs"`
	Cost   float64  `json:"cost"`
	Degree int      `json:"degree"`
	Global bool     `json:"global"`
}

// IterationRetried reports one build/colour/spill round that ended in
// spills, forcing the region to rebuild and recolour.
type IterationRetried struct {
	Func    string `json:"func"`
	Region  int    `json:"region"`
	Iter    int    `json:"iter"`
	Spilled int    `json:"spilled"`
}

// SpillHoisted reports a spill-slot family moved out of a loop region
// into spill nodes before/after the loop (§3.2).
type SpillHoisted struct {
	Func string `json:"func"`
	// Loop is the loop region the family left; Parent the region that
	// received the spill nodes.
	Loop   int    `json:"loop"`
	Parent int    `json:"parent"`
	Slot   int64  `json:"slot"`
	Reg    string `json:"reg"`
	Loads  int    `json:"loads"`
	Stores int    `json:"stores"`
}

// LoadEliminated reports one Fig. 6 peephole rewrite (§3.3). Action is
// "load-deleted", "load-to-copy" or "store-deleted".
type LoadEliminated struct {
	Func   string `json:"func"`
	Action string `json:"action"`
	Slot   int64  `json:"slot"`
	Reg    string `json:"reg"`
}

func (*SpanStart) Kind() string        { return "SpanStart" }
func (*SpanEnd) Kind() string          { return "SpanEnd" }
func (*RegionColored) Kind() string    { return "RegionColored" }
func (*NodeSpilled) Kind() string      { return "NodeSpilled" }
func (*IterationRetried) Kind() string { return "IterationRetried" }
func (*SpillHoisted) Kind() string     { return "SpillHoisted" }
func (*LoadEliminated) Kind() string   { return "LoadEliminated" }

func (e *SpanStart) text() string { return fmt.Sprintf("span %s: start", e.Phase) }
func (e *SpanEnd) text() string {
	return fmt.Sprintf("span %s: end (%.3fms)", e.Phase, float64(e.DurNS)/1e6)
}
func (e *RegionColored) text() string {
	return fmt.Sprintf("[%s] region %d (%s) iter %d: coloured %d nodes with %d colours",
		e.Func, e.Region, e.RegionKind, e.Iter, e.Nodes, e.Colors)
}
func (e *NodeSpilled) text() string {
	return fmt.Sprintf("[%s] region %d iter %d: SPILL [%s] cost=%.3f deg=%d global=%v",
		e.Func, e.Region, e.Iter, strings.Join(e.Regs, " "), e.Cost, e.Degree, e.Global)
}
func (e *IterationRetried) text() string {
	return fmt.Sprintf("[%s] region %d iter %d: retry after %d spills",
		e.Func, e.Region, e.Iter, e.Spilled)
}
func (e *SpillHoisted) text() string {
	return fmt.Sprintf("[%s] loop region %d: hoisted slot %d (%s) to region %d (%d loads, %d stores)",
		e.Func, e.Loop, e.Slot, e.Reg, e.Parent, e.Loads, e.Stores)
}
func (e *LoadEliminated) text() string {
	return fmt.Sprintf("[%s] peephole: %s slot %d (%s)", e.Func, e.Action, e.Slot, e.Reg)
}

// Tagged wraps an event with the trace ID of the job that produced it
// (see Tracer.WithTag). It is transparent on the wire: Kind delegates
// to the inner event and the JSON form is the inner event's object
// with a leading "trace_id" field, so Decode of a tagged line yields
// the inner typed event (the tag is a join key for log consumers, not
// part of the event's identity).
type Tagged struct {
	TraceID string
	Event   Event
}

// Kind reports the inner event's kind.
func (e *Tagged) Kind() string { return e.Event.Kind() }

func (e *Tagged) text() string { return "[" + e.TraceID + "] " + e.Event.text() }

// MarshalJSON splices the trace ID into the inner event's object as
// its first field.
func (e *Tagged) MarshalJSON() ([]byte, error) {
	body, err := json.Marshal(e.Event)
	if err != nil {
		return nil, err
	}
	id, err := json.Marshal(e.TraceID)
	if err != nil {
		return nil, err
	}
	out := append([]byte(`{"trace_id":`), id...)
	if len(body) <= 2 { // "{}"
		return append(out, '}'), nil
	}
	out = append(out, ',')
	return append(out, body[1:]...), nil
}

// newEvent returns a zero event of the given kind, or nil.
func newEvent(kind string) Event {
	switch kind {
	case "SpanStart":
		return &SpanStart{}
	case "SpanEnd":
		return &SpanEnd{}
	case "RegionColored":
		return &RegionColored{}
	case "NodeSpilled":
		return &NodeSpilled{}
	case "IterationRetried":
		return &IterationRetried{}
	case "SpillHoisted":
		return &SpillHoisted{}
	case "LoadEliminated":
		return &LoadEliminated{}
	}
	return nil
}

// Encode renders ev as one JSON object with its kind spliced in as the
// leading "ev" field: {"ev":"NodeSpilled","func":...}.
func Encode(ev Event) ([]byte, error) {
	body, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	head := append([]byte(`{"ev":`), '"')
	head = append(head, ev.Kind()...)
	head = append(head, '"')
	if len(body) <= 2 { // "{}"
		return append(head, '}'), nil
	}
	head = append(head, ',')
	return append(head, body[1:]...), nil
}

// Decode parses one JSONL line produced by Encode back into its typed
// event.
func Decode(line []byte) (Event, error) {
	var env struct {
		Ev string `json:"ev"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("obs: bad event line: %w", err)
	}
	ev := newEvent(env.Ev)
	if ev == nil {
		return nil, fmt.Errorf("obs: unknown event kind %q", env.Ev)
	}
	if err := json.Unmarshal(line, ev); err != nil {
		return nil, err
	}
	return ev, nil
}
