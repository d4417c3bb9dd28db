package store_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// FuzzStoreOpen feeds arbitrary bytes to the log replay: the input is
// written after the magic of a fresh log file. Open must not panic or
// fail (a corrupt or short tail is truncated, not refused), every key
// ForEach yields must Get the same value, and a Close and a second Open
// must replay the same keys and values.
//
//	go test -run '^$' -fuzz '^FuzzStoreOpen$' -fuzztime 20s -fuzzminimizetime 1s ./internal/store
func FuzzStoreOpen(f *testing.F) {
	dir := f.TempDir()
	prologue := logBytes(f, filepath.Join(dir, "empty.log"), nil)
	records := logBytes(f, filepath.Join(dir, "puts.log"), func(s *store.Store) {
		for _, kv := range [][2]string{{"k1", "v1"}, {"k2", "value two"}, {"k1", "v1 again"}, {"result/abc", ""}} {
			if err := s.Put(kv[0], []byte(kv[1])); err != nil {
				f.Fatal(err)
			}
		}
	})[len(prologue):]
	f.Add(records)
	f.Add(records[:len(records)-3])
	// Flip one byte of the second record's checksum.
	flipped := append([]byte(nil), records...)
	flipped[8+binary.LittleEndian.Uint32(records[4:8])] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, input []byte) {
		path := filepath.Join(t.TempDir(), "f.log")
		if err := os.WriteFile(path, append(append([]byte(nil), prologue...), input...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(path, store.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		first := contents(t, s)
		for k, v := range first {
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, v) {
				t.Fatalf("Get(%q) = %q, %v; ForEach yielded %q", k, got, ok, v)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s2, err := store.Open(path, store.Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s2.Close()
		second := contents(t, s2)
		if len(second) != len(first) {
			t.Fatalf("second Open replayed %d keys, first %d", len(second), len(first))
		}
		for k, v := range first {
			if got, ok := second[k]; !ok || !bytes.Equal(got, v) {
				t.Fatalf("key %q: second Open replayed %q (present %v), first %q", k, got, ok, v)
			}
		}
	})
}

// logBytes returns the bytes of a fresh log at path after fill (if any)
// ran on it and the store closed.
func logBytes(f *testing.F, path string, fill func(*store.Store)) []byte {
	s, err := store.Open(path, store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	if fill != nil {
		fill(s)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// contents returns every live key and value of s.
func contents(t *testing.T, s *store.Store) map[string][]byte {
	m := map[string][]byte{}
	if err := s.ForEach(func(k string, v []byte) bool {
		m[k] = v
		return true
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	return m
}
