package serve_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestRunnerPersistentRestart is the service half of the tentpole: a
// runner backed by a store serves a batch, shuts down, and a fresh
// runner over the reopened store serves the identical batch from
// persisted results — nonzero cache hits, byte-identical payloads.
func TestRunnerPersistentRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifacts.log")
	jobs := []serve.Job{
		{ID: "a", Source: goodSrc, Allocator: "rap", K: 5, Verify: true},
		{ID: "b", Source: goodSrc, Allocator: "rap", K: 3},
		{ID: "c", Source: goodSrc, Allocator: "gra", K: 5},
	}

	openStore := func(m *obs.Metrics) *store.Store {
		s, err := store.Open(path, store.Options{Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// First life: cold run, results persist.
	m1 := obs.NewMetrics()
	s1 := openStore(m1)
	r1 := serve.NewRunner(serve.RunnerConfig{Workers: 2, Tracer: obs.New().WithMetrics(m1), Store: s1})
	first, err := r1.DoBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range first {
		if res.Status != serve.StatusOK {
			t.Fatalf("job %d: status %q (%s)", i, res.Status, res.Error)
		}
		if res.Cached {
			t.Fatalf("job %d: cold run reported cached", i)
		}
	}
	if err := r1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var keys []string
	if err := s1.ForEach(func(key string, _ []byte) bool {
		keys = append(keys, key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(jobs) {
		t.Fatalf("persisted %d records %q, want %d results", len(keys), keys, len(jobs))
	}
	for _, key := range keys {
		if !strings.HasPrefix(key, "result/") {
			t.Fatalf("persisted %q, want only result/ records", key)
		}
	}

	// Second life: the reopened store warm-starts the cache; the same
	// batch is served without recomputation and identically.
	m2 := obs.NewMetrics()
	s2 := openStore(m2)
	defer s2.Close()
	r2 := newTestRunner(t, serve.RunnerConfig{Workers: 2, Tracer: obs.New().WithMetrics(m2), Store: s2})
	second, err := r2.DoBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range second {
		if res.Status != serve.StatusOK {
			t.Fatalf("restart job %d: status %q (%s)", i, res.Status, res.Error)
		}
		if !res.Cached {
			t.Fatalf("restart job %d: not served from cache", i)
		}
		if res.Code != first[i].Code || res.Ret != first[i].Ret {
			t.Fatalf("restart job %d: result differs from first life", i)
		}
		if first[i].Verified && !res.Verified {
			t.Fatalf("restart job %d: lost verified flag", i)
		}
	}
	snap := m2.Snapshot().Counters
	if snap["serve.cache.warm_loaded"] != int64(len(jobs)) {
		t.Fatalf("warm_loaded = %d, want %d", snap["serve.cache.warm_loaded"], len(jobs))
	}
	if snap["serve.cache.hits"] == 0 {
		t.Fatal("restart produced no cache hits")
	}
}

// TestMetricsExposesPipelineAndStore: one /metrics scrape shows the
// serve-pool counters, the merged pipeline counters and the store
// traffic.
func TestMetricsExposesPipelineAndStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifacts.log")
	m := obs.NewMetrics()
	s, err := store.Open(path, store.Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1, Tracer: obs.New().WithMetrics(m), Store: s})
	if res, err := r.Do(context.Background(), serve.Job{Source: goodSrc, Allocator: "rap", K: 5}); err != nil || res.Status != serve.StatusOK {
		t.Fatalf("job: %v %+v", err, res)
	}

	srv := serve.NewServer(r)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad /metrics body: %v", err)
	}
	groups := map[string]bool{}
	for name := range snap.Counters {
		groups[name[:strings.IndexByte(name+".", '.')]] = true
	}
	for _, want := range []string{"serve", "rap", "interp", "store"} {
		if !groups[want] {
			t.Errorf("/metrics missing %s.* counters (have groups %v)", want, groups)
		}
	}
}
