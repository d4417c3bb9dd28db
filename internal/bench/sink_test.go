package bench_test

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestMetricsOnlyTraceMatchesSinkTrace: the allocators build event
// payloads (RegionColored, NodeSpilled, ...) only when a sink is
// attached. A metrics-only traced Table 1 run must record exactly the
// deterministic section a run with a sink records.
func TestMetricsOnlyTraceMatchesSinkTrace(t *testing.T) {
	ks := []int{3, 5, 7, 9}
	if testing.Short() {
		ks = []int{3, 9}
	}
	render := func(sink obs.Sink) (obs.Snapshot, []byte) {
		m := obs.NewMetrics()
		cfg := core.CompareConfig{Parallel: 2}
		if sink != nil {
			cfg.Trace = obs.New(sink).WithMetrics(m)
		}
		if _, err := bench.MeasureTimed(bench.Programs(), ks, cfg, m); err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot().Deterministic()
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return snap, buf.Bytes()
	}
	snap, metricsOnly := render(nil)
	events := &obs.Collector{}
	_, withSink := render(events)
	if !bytes.Equal(metricsOnly, withSink) {
		t.Fatalf("deterministic snapshot differs without a sink:\n--- metrics only ---\n%s\n--- with sink ---\n%s", metricsOnly, withSink)
	}
	for _, name := range []string{"rap.spill_rounds", "gra.spill_rounds"} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s is 0: the comparison is vacuous", name)
		}
	}
	// The sink still receives full payloads.
	assigned, regs := 0, 0
	for _, ev := range events.Events() {
		switch e := ev.(type) {
		case *obs.RegionColored:
			assigned += len(e.Assigned)
		case *obs.NodeSpilled:
			regs += len(e.Regs)
		}
	}
	if assigned == 0 || regs == 0 {
		t.Errorf("sink saw %d assigned registers and %d spilled registers, want both > 0", assigned, regs)
	}
}
