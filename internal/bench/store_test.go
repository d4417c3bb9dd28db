package bench_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestMemoStoreColdWarmTable1: Table 1 measured through RAP's region
// memo backed by a persistent store is byte-identical whether the store
// starts empty (cold pass, which writes the summaries) or is reopened
// with them (warm pass, which reuses them). Memoized allocation is
// sound or this test fails.
func TestMemoStoreColdWarmTable1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifacts.log")
	ks := []int{3, 5}
	pass := func() (text, csv string, counters map[string]int64) {
		m := obs.NewMetrics()
		st, err := store.Open(path, store.Options{Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.CompareConfig{Parallel: 2}
		cfg.RAP.Memo = store.Prefixed(st, "memo/")
		rows, err := bench.MeasureTimed(bench.Programs(), ks, cfg, m, "sieve", "hanoi")
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := bench.WriteCSV(&b, rows, ks); err != nil {
			t.Fatal(err)
		}
		return bench.Format(rows, ks), b.String(), m.Snapshot().Counters
	}
	coldText, coldCSV, cold := pass()
	warmText, warmCSV, warm := pass()
	if coldText != warmText {
		t.Errorf("warm Table 1 differs from cold:\n--- cold ---\n%s--- warm ---\n%s", coldText, warmText)
	}
	if coldCSV != warmCSV {
		t.Errorf("warm CSV differs from cold:\n--- cold ---\n%s--- warm ---\n%s", coldCSV, warmCSV)
	}
	if cold["store.write"] == 0 {
		t.Errorf("cold pass wrote nothing to the store: %v", cold)
	}
	if warm["rap.memo.hits"] == 0 {
		t.Errorf("warm pass reused no memoized region: %v", warm)
	}
}
