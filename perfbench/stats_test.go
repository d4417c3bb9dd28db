package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentile(t *testing.T) {
	if v, err := percentile(seq(100), 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if v, err := percentile(seq(1000), 90); err != nil || v != 900 {
		t.Errorf("p90 of 1..1000 = %v, %v; want 900", v, err)
	}
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples was reported; fewer than 10 lie beyond it")
	}
	if v, err := percentile(seq(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 samples was reported")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, med, q3 := quartiles(seq(10)); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, med, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := map[int64]float64{1: 100, 2: 101, 3: 99, 4: 100, 5: 102}
	shift := func(by float64) map[int64]float64 {
		out := map[int64]float64{}
		for s, v := range base {
			out[s] = v * by
		}
		return out
	}
	cases := []struct {
		change map[int64]float64
		lower  bool
		want   string
	}{
		{shift(1.2), true, "worse"},
		{shift(0.8), true, "better"},
		{shift(1.01), true, "unresolved"},
		{shift(0.8), false, "worse"},
		{shift(1.2), false, "better"},
	}
	for _, c := range cases {
		if got := verdict(base, c.change, c.lower, 0.1); got != c.want {
			t.Errorf("verdict(lower=%v, change=%v) = %s, want %s", c.lower, c.change, got, c.want)
		}
	}
}

func TestClosedLoopRunsAPrefix(t *testing.T) {
	counts := make([]int, 50)
	ran := closedLoop(2, len(counts), 20, 0, func(i int) { counts[i]++ })
	if ran != 20 {
		t.Errorf("ran %d jobs after the window closed, want the 20 required", ran)
	}
	for i, c := range counts {
		if want := map[bool]int{true: 1, false: 0}[i < ran]; c != want {
			t.Errorf("job %d ran %d times, want %d", i, c, want)
		}
	}
	if ran := closedLoop(2, 5, 100, time.Hour, func(int) {}); ran != 5 {
		t.Errorf("ran %d jobs of a 5-job stream", ran)
	}
}

func TestSamplerCutsTheWindow(t *testing.T) {
	var ops atomic.Int64
	s := startSampler(func() int { return int(ops.Load()) }, 50*time.Millisecond)
	for range 30 {
		ops.Add(1)
		time.Sleep(10 * time.Millisecond)
	}
	slices := s.stop(50 * time.Millisecond)
	if len(slices) < 4 {
		t.Fatalf("300 ms cut into %d slices of 50 ms", len(slices))
	}
	sum := 0
	for _, sl := range slices {
		sum += sl.ops
		if sl.wall <= 0 || sl.peakRSSMB <= 0 {
			t.Errorf("slice %+v lacks its wall time or RSS", sl)
		}
	}
	if sum > 30 || sum < 25 {
		t.Errorf("slices hold %d ops, want the 30 counted less at most a short dropped tail", sum)
	}
}

// TestBenchmarkJSONNamesTheReportedMetrics keeps BENCHMARK.json and the
// metric sets this program prints in step.
func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, sortedKeys(workloads); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program workloads %v", got, want)
	}
}
