package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SnapshotSchema names the JSON schema Snapshot serializes to. Bump it
// when a field changes meaning; additions are backward compatible.
// v2 added gauges, value histograms ("hists") and wall-clock duration
// histograms ("time_hists_ns") alongside the v1 counters/timings.
const SnapshotSchema = "rap/metrics/v2"

// Metrics is a registry of monotonic counters, cumulative phase
// timings, gauges and histograms. The zero value is not usable; use
// NewMetrics. All methods are safe for concurrent use and nil-safe, so
// call sites can thread an optional registry without guards.
//
// Naming convention: dot-separated paths, coarse to fine —
// "rap.spill_rounds", "rap.peephole.loads_deleted",
// "interp.total.cycles". No name carries an identifier from the
// compiled program, so a long-lived registry's key set stays bounded
// however many programs it sees.
//
// Determinism contract: counters, gauges and value histograms (Hists)
// depend only on the work performed, so equal work yields byte-equal
// snapshots of those sections. Timings and duration histograms
// (TimeHistsNS) are wall clock and vary run to run; Deterministic()
// strips them for byte-compare consumers.
type Metrics struct {
	mu        sync.Mutex
	counters  map[string]int64
	timings   map[string]time.Duration
	gauges    map[string]int64
	hists     map[string]*Histogram
	timeHists map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:  map[string]int64{},
		timings:   map[string]time.Duration{},
		gauges:    map[string]int64{},
		hists:     map[string]*Histogram{},
		timeHists: map[string]*Histogram{},
	}
}

// Add increments counter name by delta.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Observe accumulates d into the timing for phase.
func (m *Metrics) Observe(phase string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.timings[phase] += d
	m.mu.Unlock()
}

// SetGauge sets gauge name to v, a point-in-time level (queue depth,
// in-flight jobs, worker count). A gauge holds the last value set, so
// only its owner sets it: the serve runner and the fleet router, each on
// its own registry. Work recorded from many goroutines goes to counters
// and histograms, whose sums do not depend on the order of the calls.
func (m *Metrics) SetGauge(name string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// ObserveVal records one sample into the value histogram for name.
// Value histograms count work (iterations, node counts, cycles) and
// are part of the deterministic sections.
func (m *Metrics) ObserveVal(name string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	h.Observe(v)
	m.mu.Unlock()
}

// ObserveDur records one wall-clock duration sample (in nanoseconds)
// into the duration histogram for phase AND accumulates it into the
// cumulative timing — one call feeds both the v1 total and the v2
// distribution.
func (m *Metrics) ObserveDur(phase string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.timings[phase] += d
	h := m.timeHists[phase]
	if h == nil {
		h = &Histogram{}
		m.timeHists[phase] = h
	}
	h.Observe(d.Nanoseconds())
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of the registry in its stable JSON
// form. Counters, gauges and value histograms are deterministic for a
// deterministic compilation; timings and duration histograms are wall
// clock and vary run to run, which is why they live in fields
// consumers can ignore (and tests do — see Deterministic).
type Snapshot struct {
	Schema      string                  `json:"schema"`
	Counters    map[string]int64        `json:"counters"`
	Gauges      map[string]int64        `json:"gauges,omitempty"`
	Hists       map[string]HistSnapshot `json:"hists,omitempty"`
	TimingsNS   map[string]int64        `json:"timings_ns,omitempty"`
	TimeHistsNS map[string]HistSnapshot `json:"time_hists_ns,omitempty"`
}

// Snapshot copies the registry. A nil registry yields an empty (but
// valid) snapshot.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Schema: SnapshotSchema, Counters: map[string]int64{}}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(m.gauges))
		for k, v := range m.gauges {
			s.Gauges[k] = v
		}
	}
	if len(m.hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(m.hists))
		for k, h := range m.hists {
			s.Hists[k] = h.snapshot()
		}
	}
	if len(m.timings) > 0 {
		s.TimingsNS = make(map[string]int64, len(m.timings))
		for k, v := range m.timings {
			s.TimingsNS[k] = v.Nanoseconds()
		}
	}
	if len(m.timeHists) > 0 {
		s.TimeHistsNS = make(map[string]HistSnapshot, len(m.timeHists))
		for k, h := range m.timeHists {
			s.TimeHistsNS[k] = h.snapshot()
		}
	}
	return s
}

// Deterministic returns a copy of the snapshot with the wall-clock
// sections (TimingsNS, TimeHistsNS) stripped: the part of the schema
// that must be byte-identical across reruns and worker counts for the
// same work. The bench parallel-determinism tests compare exactly this.
func (s Snapshot) Deterministic() Snapshot {
	s.TimingsNS = nil
	s.TimeHistsNS = nil
	return s
}

// WriteJSON writes the snapshot as indented JSON. encoding/json sorts
// map keys, so the output is byte-stable for equal snapshots.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
