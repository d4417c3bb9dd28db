package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

func open(t *testing.T, path string, opts store.Options) *store.Store {
	t.Helper()
	s, err := store.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	s := open(t, path, store.Options{})
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := s.Get("k3"); !ok || string(got) != "v3" {
		t.Fatalf("Get(k3) = %q, %v", got, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get(nope) hit")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, path, store.Options{})
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("reopened Len = %d, want 10", s2.Len())
	}
	for i := 0; i < 10; i++ {
		if got, ok := s2.Get(fmt.Sprintf("k%d", i)); !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopened Get(k%d) = %q, %v", i, got, ok)
		}
	}
}

func TestLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	s := open(t, path, store.Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := s.Get("k"); string(got) != "v2" {
		t.Fatalf("Get(k) = %q, want v2", got)
	}
	s.Close()
	s2 := open(t, path, store.Options{})
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
	if got, _ := s2.Get("k"); string(got) != "v2" {
		t.Fatalf("reopened Get(k) = %q, want v2", got)
	}
}

// TestCrashConsistency is the satellite's test: write N records, then for
// every byte offset inside the final record truncate a copy of the log
// there, reopen, and assert exactly N−1 records survive with
// store.corrupt = 1. Truncating exactly at the final record's start is a
// clean log of N−1 records (corrupt = 0).
func TestCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	const n = 5
	s := open(t, path, store.Options{})
	sizes := make([]int64, 0, n+1)
	sizes = append(sizes, s.SizeBytes())
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte('a' + i)}, 10+i)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, s.SizeBytes())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart, lastEnd := sizes[n-1], sizes[n]
	if int64(len(full)) != lastEnd {
		t.Fatalf("file size %d, want %d", len(full), lastEnd)
	}
	check := func(cut int64, wantCorrupt int64) {
		t.Helper()
		cutPath := filepath.Join(dir, fmt.Sprintf("cut%d.log", cut))
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m := obs.NewMetrics()
		cs := open(t, cutPath, store.Options{Metrics: m})
		defer cs.Close()
		if cs.Len() != n-1 {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, cs.Len(), n-1)
		}
		for i := 0; i < n-1; i++ {
			want := bytes.Repeat([]byte{byte('a' + i)}, 10+i)
			if got, ok := cs.Get(fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(got, want) {
				t.Fatalf("cut at %d: Get(k%d) = %q, %v", cut, i, got, ok)
			}
		}
		if got := m.Snapshot().Counters["store.corrupt"]; got != wantCorrupt {
			t.Fatalf("cut at %d: store.corrupt = %d, want %d", cut, got, wantCorrupt)
		}
	}
	check(lastStart, 0) // clean boundary: no corruption observed
	for cut := lastStart + 1; cut < lastEnd; cut++ {
		check(cut, 1)
	}
}

// TestCorruptMiddleRecordTruncatesTail: a bit flip in an interior record
// drops it and everything after it (truncate-and-recover has tail
// semantics), still counting one corruption.
func TestCorruptMiddleRecordTruncatesTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	s := open(t, path, store.Options{})
	var afterFirst int64
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			afterFirst = s.SizeBytes()
		}
	}
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[afterFirst+20] ^= 0xff // inside the second record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	s2 := open(t, path, store.Options{Metrics: m})
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
	if got := m.Snapshot().Counters["store.corrupt"]; got != 1 {
		t.Fatalf("store.corrupt = %d, want 1", got)
	}
	// The truncated log reopens clean.
	s2.Close()
	m2 := obs.NewMetrics()
	s3 := open(t, path, store.Options{Metrics: m2})
	defer s3.Close()
	if got := m2.Snapshot().Counters["store.corrupt"]; got != 0 {
		t.Fatalf("second reopen store.corrupt = %d, want 0", got)
	}
}

func TestBadMagicRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	if err := os.WriteFile(path, []byte("definitely not a store log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(path, store.Options{}); err == nil {
		t.Fatal("Open accepted a non-store file")
	}
}

// TestGCBoundsSizeAndKeepsRecent: pushing past MaxBytes compacts the log
// by access time — recently read keys survive, cold ones are dropped,
// the file shrinks under the bound, and store.gc counts the compaction.
func TestGCBoundsSizeAndKeepsRecent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	m := obs.NewMetrics()
	s := open(t, path, store.Options{MaxBytes: 4096, Metrics: m})
	defer s.Close()
	val := bytes.Repeat([]byte{'x'}, 200)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so it is the hottest entry, then overflow the bound.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing before overflow")
	}
	for i := 10; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SizeBytes(); got > 4096 {
		t.Fatalf("size %d exceeds bound after GC", got)
	}
	if got := m.Snapshot().Counters["store.gc"]; got == 0 {
		t.Fatal("store.gc = 0, want compactions")
	}
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("recently-accessed k0 was collected")
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("cold k1 survived GC")
	}
	// Survivors reload from the compacted file.
	s.Close()
	s2 := open(t, path, store.Options{MaxBytes: 4096})
	defer s2.Close()
	if _, ok := s2.Get("k0"); !ok {
		t.Fatal("k0 missing after reopen of compacted log")
	}
	if _, ok := s2.Get("k19"); !ok {
		t.Fatal("k19 missing after reopen of compacted log")
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	s := open(t, path, store.Options{MaxBytes: 1 << 16})
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%20)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(key); ok && string(got) != key {
					t.Errorf("Get(%s) = %q", key, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 4; w++ {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("w%d-k%d", w, i)
			if got, ok := s.Get(key); !ok || string(got) != key {
				t.Fatalf("after workers: Get(%s) = %q, %v", key, got, ok)
			}
		}
	}
}

func TestForEachOrderAndPrefixView(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	m := obs.NewMetrics()
	s := open(t, path, store.Options{Metrics: m})
	defer s.Close()
	other := store.Prefixed(s, "other/")
	result := store.Prefixed(s, "result/")
	if err := other.Put("h1", []byte("o1")); err != nil {
		t.Fatal(err)
	}
	if err := result.Put("h1", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if got, ok := other.Get("h1"); !ok || string(got) != "o1" {
		t.Fatalf("other Get = %q, %v", got, ok)
	}
	if got, ok := result.Get("h1"); !ok || string(got) != "r1" {
		t.Fatalf("result Get = %q, %v", got, ok)
	}
	var keys []string
	if err := s.ForEach(func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "other/h1" || keys[1] != "result/h1" {
		t.Fatalf("ForEach keys = %v", keys)
	}
	snap := m.Snapshot().Counters
	if snap["store.write"] != 2 || snap["store.hit"] != 2 {
		t.Fatalf("counters = %v", snap)
	}
}

// TestRestartPreservesAccessRecency is the regression test for GC
// ordering across restarts: replay can only observe file order, so a
// store whose access order diverged from append order must compact on
// Close. Without the compaction, a restarted worker's first GC evicts
// by append order — its hottest (earliest-written, most-read) artifacts
// go first.
func TestRestartPreservesAccessRecency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	m := obs.NewMetrics()
	s := open(t, path, store.Options{MaxBytes: 1 << 20, Metrics: m})
	val := bytes.Repeat([]byte{'x'}, 1024)
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	// "a" is written first but read last: truly the hottest entry.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := m.Snapshot().Counters["store.compact"]; got != 1 {
		t.Fatalf("store.compact = %d, want 1 close-time compaction", got)
	}

	// Restart with a bound that forces the next Put to evict (magic +
	// four ~1KB records don't fit in 3600 bytes). Replay order alone must
	// carry the pre-restart recency — no Gets before the eviction.
	s2 := open(t, path, store.Options{MaxBytes: 3600})
	defer s2.Close()
	if got := s2.Len(); got != 3 {
		t.Fatalf("restarted store has %d keys, want 3", got)
	}
	if err := s2.Put("d", val); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("a"); !ok {
		t.Fatal("hottest pre-restart entry a was evicted — replay lost access recency")
	}
	if _, ok := s2.Get("b"); ok {
		t.Fatal("coldest pre-restart entry b survived the post-restart GC")
	}
	if _, ok := s2.Get("d"); !ok {
		t.Fatal("freshly-written d missing")
	}
}
