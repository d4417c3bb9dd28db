package bench_test

// The parallel harness contract: fanning the (program, k) units over a
// worker pool changes wall clock only. Rows, Table 1 text, and the
// deterministic half of the metrics snapshot must be byte-identical to a
// sequential run.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

func subset() ([]bench.Program, []int, []string) {
	return bench.Programs(), []int{3, 7}, []string{"sieve", "hanoi", "perm"}
}

func TestMeasureParallelMatchesSequential(t *testing.T) {
	progs, ks, only := subset()
	seq, err := bench.Measure(progs, ks, core.CompareConfig{}, only...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := bench.Measure(progs, ks, core.CompareConfig{Parallel: 4}, only...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel rows differ from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	if s, p := bench.Format(seq, ks), bench.Format(par, ks); s != p {
		t.Fatalf("parallel Table 1 text differs:\n%s\nvs\n%s", s, p)
	}
}

func TestMeasureTimedParallelMetricsIdentical(t *testing.T) {
	progs, ks, only := subset()
	run := func(parallel int) obs.Snapshot {
		m := obs.NewMetrics()
		if _, err := bench.MeasureTimed(progs, ks, core.CompareConfig{Parallel: parallel}, m, only...); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	seq, par := run(1), run(4)
	// Counters are deterministic; timings are wall clock and excluded.
	if !reflect.DeepEqual(seq.Counters, par.Counters) {
		for k, v := range seq.Counters {
			if par.Counters[k] != v {
				t.Errorf("counter %s: sequential %d, parallel %d", k, v, par.Counters[k])
			}
		}
		for k, v := range par.Counters {
			if _, ok := seq.Counters[k]; !ok {
				t.Errorf("counter %s: only in parallel run (%d)", k, v)
			}
		}
		t.Fatal("parallel metrics counters differ from sequential")
	}
}

// TestMetricsV2SnapshotByteIdenticalAcrossWorkers is the rap/metrics/v2
// determinism proof: for worker counts 1, 4 and 8 the deterministic
// snapshot — counters, gauges AND value histograms — serializes to
// byte-identical JSON. Only the wall-clock sections (timings_ns,
// time_hists_ns) may differ across runs.
func TestMetricsV2SnapshotByteIdenticalAcrossWorkers(t *testing.T) {
	progs, ks, only := subset()
	render := func(parallel int) []byte {
		m := obs.NewMetrics()
		if _, err := bench.MeasureTimed(progs, ks, core.CompareConfig{Parallel: parallel}, m, only...); err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		if snap.Schema != obs.SnapshotSchema {
			t.Fatalf("schema = %q", snap.Schema)
		}
		if len(snap.Hists) == 0 {
			t.Fatal("no value histograms recorded — the determinism check would be vacuous")
		}
		for name, h := range snap.Hists {
			if !h.Check() {
				t.Fatalf("hist %s fails Check: %+v", name, h)
			}
		}
		var buf bytes.Buffer
		if err := snap.Deterministic().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := render(1)
	for _, n := range []int{4, 8} {
		if got := render(n); !bytes.Equal(base, got) {
			t.Fatalf("deterministic snapshot with %d workers differs from sequential:\n--- seq ---\n%s\n--- par(%d) ---\n%s", n, base, n, got)
		}
	}
}
