package serve

import (
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

func TestCacheLRU(t *testing.T) {
	m := obs.NewMetrics()
	c := newCache(2, m)

	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", Result{ID: "a"})
	c.put("b", Result{ID: "b"})
	if res, ok := c.get("a"); !ok || res.ID != "a" {
		t.Fatalf("get(a) = %+v, %v", res, ok)
	}
	// "a" is now most recently used, so inserting "c" must evict "b".
	c.put("c", Result{ID: "c"})
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction; LRU order ignores recency")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite being most recently used")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	snap := m.Snapshot().Counters
	if snap["serve.cache.hits"] != 2 || snap["serve.cache.misses"] != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", snap["serve.cache.hits"], snap["serve.cache.misses"])
	}
	if snap["serve.cache.evictions"] != 1 {
		t.Errorf("evictions = %d, want 1", snap["serve.cache.evictions"])
	}
	if snap["serve.cache.entries"] != 2 {
		t.Errorf("entries counter = %d, want 2", snap["serve.cache.entries"])
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := newCache(4, nil)
	c.put("k", Result{Ret: 1})
	c.put("k", Result{Ret: 2})
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 after double put", c.len())
	}
	if res, _ := c.get("k"); res.Ret != 2 {
		t.Errorf("get returned stale result %+v", res)
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newCache(capacity, nil)
		c.put("k", Result{Ret: 1})
		if _, ok := c.get("k"); ok {
			t.Errorf("cap=%d: disabled cache stored a result", capacity)
		}
		if c.len() != 0 {
			t.Errorf("cap=%d: len = %d, want 0", capacity, c.len())
		}
	}
}

func TestCacheEvictionChurn(t *testing.T) {
	c := newCache(8, nil)
	for i := 0; i < 100; i++ {
		c.put(strconv.Itoa(i), Result{Ret: int64(i)})
	}
	if c.len() != 8 {
		t.Fatalf("len = %d, want 8", c.len())
	}
	// The survivors are exactly the 8 most recent inserts.
	for i := 92; i < 100; i++ {
		if res, ok := c.get(strconv.Itoa(i)); !ok || res.Ret != int64(i) {
			t.Errorf("recent key %d missing", i)
		}
	}
}

// TestCacheDiskTier drives the result cache's tier chain over a real
// store: a result evicted from memory comes back from disk and
// re-enters memory without a second store write, and a disk entry that
// does not decode is a miss.
func TestCacheDiskTier(t *testing.T) {
	m := obs.NewMetrics()
	st, err := store.Open(filepath.Join(t.TempDir(), "artifacts.log"), store.Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := newCache(2, m)
	c.disk = store.Prefixed(st, resultPrefix)

	for i, key := range []string{"a", "b", "c"} {
		c.put(key, Result{ID: key, Status: StatusOK, Ret: int64(i)})
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	counters := func() map[string]int64 { return m.Snapshot().Counters }
	writes := counters()["store.write"]
	if writes != 3 {
		t.Fatalf("store.write = %d after 3 puts, want 3", writes)
	}

	// "a" was evicted by "c": it must come back from disk.
	if res, ok := c.get("a"); !ok || res.ID != "a" || res.Ret != 0 {
		t.Fatalf("get(a) after eviction = %+v, %v; want the persisted result", res, ok)
	}
	if n := counters(); n["serve.cache.disk_hits"] != 1 || n["serve.cache.hits"] != 1 {
		t.Errorf("disk_hits/hits = %d/%d, want 1/1", n["serve.cache.disk_hits"], n["serve.cache.hits"])
	}
	// It re-entered memory: the next get is a memory hit, and neither
	// get wrote to the store.
	if _, ok := c.get("a"); !ok {
		t.Fatal("second get(a) missed")
	}
	if n := counters(); n["serve.cache.disk_hits"] != 1 || n["serve.cache.hits"] != 2 {
		t.Errorf("disk_hits/hits = %d/%d, want 1/2 (second get should hit memory)", n["serve.cache.disk_hits"], n["serve.cache.hits"])
	}
	if got := counters()["store.write"]; got != writes {
		t.Errorf("store.write = %d, want %d: a disk hit was written back", got, writes)
	}

	if err := st.Put(resultPrefix+"bad", []byte("{not a result")); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.get("bad"); ok {
		t.Errorf("undecodable disk entry served as %+v", res)
	}
	if n := counters(); n["serve.cache.misses"] != 1 || n["serve.cache.disk_hits"] != 1 {
		t.Errorf("misses/disk_hits = %d/%d, want 1/1", n["serve.cache.misses"], n["serve.cache.disk_hits"])
	}
}
