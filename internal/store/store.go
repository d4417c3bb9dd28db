// Package store is a persistent content-addressed artifact store: an
// append-only record log on disk fronted by an in-memory key index.
//
// Design:
//
//   - One file, opened append-only for writes. Every record carries a
//     CRC32 (IEEE) over its payload; a record whose length or checksum
//     does not parse marks the corrupt tail of a crashed write, and Open
//     truncates the file back to the last clean record boundary
//     (recovering every record before it) rather than failing.
//   - Keys are caller-chosen strings (the serve runner uses its jobs'
//     content hashes under a namespace prefix); values are opaque
//     bytes. A re-written key appends a new record; replay keeps the
//     last write.
//   - The store is size-bounded: when the log grows past MaxBytes, GC
//     compacts it by access time — least recently used records are
//     dropped, the survivors are rewritten to a temp file that atomically
//     replaces the log.
//   - Reads and writes are safe to mix concurrently: Get takes the read
//     lock (lookups and file reads), Put and GC take the write lock, and
//     per-entry access stamps are atomics so concurrent Gets do not
//     serialize on bookkeeping.
//   - Counters go to a rap/metrics/v2 registry under store.*: hit, miss,
//     write, corrupt (tail truncations at open), gc (compactions).
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// magic starts every log file; a file with a different prologue is not a
// store log and Open refuses it rather than silently truncating it away.
const magic = "RAPSTORE1\n"

// Record header layout: crc32 (4 bytes LE, over the payload) + payload
// length (4 bytes LE). The payload is kind (1) + keyLen (2 LE) + key +
// valLen (4 LE) + value.
const (
	headerSize = 8
	recordKind = 1
	// maxPayload guards the scanner against reading a garbage length as
	// a multi-gigabyte allocation.
	maxPayload = 1 << 30
	// DefaultMaxBytes bounds the log when Options.MaxBytes is zero.
	DefaultMaxBytes = 64 << 20
)

// Options configures Open.
type Options struct {
	// MaxBytes bounds the log file size; exceeding it after a Put
	// triggers an access-time GC compaction (default DefaultMaxBytes;
	// negative disables the bound).
	MaxBytes int64
	// Metrics receives the store.* counters (nil is free).
	Metrics *obs.Metrics
}

// entry locates one live record's value in the log.
type entry struct {
	valOff  int64
	valLen  int32
	recSize int64 // whole record, header included (GC budget accounting)
	seq     atomic.Uint64
}

// Store is one open log. Safe for concurrent use.
type Store struct {
	path string
	opts Options

	mu      sync.RWMutex
	f       *os.File
	size    int64
	index   map[string]*entry
	closed  bool
	seq     atomic.Uint64
	gcCount int64
	// reordered flips when a Get bumps an entry's recency out of append
	// order. Replay can only reconstruct append order, so Close compacts
	// a reordered log (rewriting records oldest-access-first) — otherwise
	// a restarted store would GC by append order and could evict its
	// hottest artifacts first.
	reordered atomic.Bool
}

// Open opens (creating if needed) the log at path, replays it into the
// in-memory index, and truncates a corrupt tail back to the last clean
// record boundary (counting store.corrupt once per truncation).
func Open(path string, opts Options) (*Store, error) {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{path: path, opts: opts, f: f, index: map[string]*entry{}}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the log, building the index. On a short or corrupt tail
// the file is truncated to the last clean boundary.
func (s *Store) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fileSize := info.Size()
	if fileSize == 0 {
		if _, err := s.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.size = int64(len(magic))
		return nil
	}
	prologue := make([]byte, len(magic))
	if n, _ := s.f.ReadAt(prologue, 0); n < len(magic) || string(prologue) != magic {
		return fmt.Errorf("store: %s is not a store log (bad magic)", s.path)
	}
	off := int64(len(magic))
	header := make([]byte, headerSize)
	var payload []byte
	for off < fileSize {
		ok := func() bool {
			if off+headerSize > fileSize {
				return false
			}
			if _, err := s.f.ReadAt(header, off); err != nil {
				return false
			}
			wantCRC := binary.LittleEndian.Uint32(header[0:4])
			plen := int64(binary.LittleEndian.Uint32(header[4:8]))
			if plen < 7 || plen > maxPayload || off+headerSize+plen > fileSize {
				return false
			}
			if int64(cap(payload)) < plen {
				payload = make([]byte, plen)
			}
			payload = payload[:plen]
			if _, err := s.f.ReadAt(payload, off+headerSize); err != nil {
				return false
			}
			if crc32.ChecksumIEEE(payload) != wantCRC {
				return false
			}
			if payload[0] != recordKind {
				return false
			}
			keyLen := int64(binary.LittleEndian.Uint16(payload[1:3]))
			if 3+keyLen+4 > plen {
				return false
			}
			key := string(payload[3 : 3+keyLen])
			valLen := int64(binary.LittleEndian.Uint32(payload[3+keyLen : 3+keyLen+4]))
			if 3+keyLen+4+valLen != plen {
				return false
			}
			e := &entry{
				valOff:  off + headerSize + 3 + keyLen + 4,
				valLen:  int32(valLen),
				recSize: headerSize + plen,
			}
			e.seq.Store(s.seq.Add(1))
			s.index[key] = e // last write wins
			off += headerSize + plen
			return true
		}()
		if !ok {
			// Corrupt or short tail: drop everything from the first bad
			// record onward.
			if err := s.f.Truncate(off); err != nil {
				return fmt.Errorf("store: truncate corrupt tail: %w", err)
			}
			s.opts.Metrics.Add("store.corrupt", 1)
			break
		}
	}
	s.size = off
	return nil
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false
	}
	e, ok := s.index[key]
	if !ok {
		s.opts.Metrics.Add("store.miss", 1)
		return nil, false
	}
	val := make([]byte, e.valLen)
	if _, err := s.f.ReadAt(val, e.valOff); err != nil {
		s.opts.Metrics.Add("store.miss", 1)
		return nil, false
	}
	e.seq.Store(s.seq.Add(1))
	s.reordered.Store(true)
	s.opts.Metrics.Add("store.hit", 1)
	return val, true
}

// Put appends a record for key. Oversized keys and values are rejected
// rather than silently corrupting the log.
func (s *Store) Put(key string, val []byte) error {
	if len(key) == 0 || len(key) > 1<<16-1 {
		return fmt.Errorf("store: key length %d out of range", len(key))
	}
	if int64(len(val)) > maxPayload-int64(len(key))-7 {
		return fmt.Errorf("store: value of %d bytes too large", len(val))
	}
	plen := 1 + 2 + len(key) + 4 + len(val)
	rec := make([]byte, headerSize+plen)
	payload := rec[headerSize:]
	payload[0] = recordKind
	binary.LittleEndian.PutUint16(payload[1:3], uint16(len(key)))
	copy(payload[3:], key)
	binary.LittleEndian.PutUint32(payload[3+len(key):], uint32(len(val)))
	copy(payload[3+len(key)+4:], val)
	binary.LittleEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(plen))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	e := &entry{
		valOff:  s.size + headerSize + int64(3+len(key)+4),
		valLen:  int32(len(val)),
		recSize: int64(len(rec)),
	}
	e.seq.Store(s.seq.Add(1))
	s.index[key] = e
	s.size += int64(len(rec))
	s.opts.Metrics.Add("store.write", 1)
	if s.opts.MaxBytes > 0 && s.size > s.opts.MaxBytes {
		if err := s.compactLocked(s.opts.MaxBytes); err != nil {
			return fmt.Errorf("store: gc: %w", err)
		}
		s.gcCount++
		s.opts.Metrics.Add("store.gc", 1)
	}
	return nil
}

// compactLocked rewrites the log by access time: entries are kept
// newest access first while they fit in maxBytes (always keeping at
// least one; maxBytes <= 0 keeps everything), rewritten
// oldest-kept-first to a temp file that atomically replaces the log —
// so both the GC bound and a future replay's ordering mirror true
// recency. Caller holds the write lock.
func (s *Store) compactLocked(maxBytes int64) error {
	type kv struct {
		key string
		e   *entry
		seq uint64
	}
	all := make([]kv, 0, len(s.index))
	for k, e := range s.index {
		all = append(all, kv{key: k, e: e, seq: e.seq.Load()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	budget := int64(len(magic))
	keep := 0
	for _, it := range all {
		if maxBytes > 0 && keep > 0 && budget+it.e.recSize > maxBytes {
			break
		}
		budget += it.e.recSize
		keep++
	}
	kept := all[:keep]
	// Rewrite oldest kept first so a future replay's ordering mirrors
	// recency.
	sort.Slice(kept, func(i, j int) bool { return kept[i].seq < kept[j].seq })

	tmpPath := s.path + ".gc"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds
	if _, err := tmp.Write([]byte(magic)); err != nil {
		tmp.Close()
		return err
	}
	newIndex := make(map[string]*entry, len(kept))
	off := int64(len(magic))
	for _, it := range kept {
		// Re-read the live value and re-encode the record (the old log is
		// not byte-addressable per record once keys repeat).
		val := make([]byte, it.e.valLen)
		if _, err := s.f.ReadAt(val, it.e.valOff); err != nil {
			tmp.Close()
			return err
		}
		plen := 1 + 2 + len(it.key) + 4 + len(val)
		rec := make([]byte, headerSize+plen)
		payload := rec[headerSize:]
		payload[0] = recordKind
		binary.LittleEndian.PutUint16(payload[1:3], uint16(len(it.key)))
		copy(payload[3:], it.key)
		binary.LittleEndian.PutUint32(payload[3+len(it.key):], uint32(len(val)))
		copy(payload[3+len(it.key)+4:], val)
		binary.LittleEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(plen))
		if _, err := tmp.WriteAt(rec, off); err != nil {
			tmp.Close()
			return err
		}
		ne := &entry{
			valOff:  off + headerSize + int64(3+len(it.key)+4),
			valLen:  it.e.valLen,
			recSize: int64(len(rec)),
		}
		ne.seq.Store(it.seq)
		newIndex[it.key] = ne
		off += int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		return err
	}
	old := s.f
	s.f = tmp
	s.index = newIndex
	s.size = off
	s.reordered.Store(false)
	old.Close()
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// SizeBytes returns the current log file size.
func (s *Store) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// Path returns the log file path.
func (s *Store) Path() string { return s.path }

// ForEach visits every live (key, value) in ascending access-time order
// (least recently used first — so a warm-start that inserts in visit
// order leaves the most recently used entries freshest). The callback
// must not call back into the store. It stops early when fn returns
// false.
func (s *Store) ForEach(fn func(key string, val []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	type kv struct {
		key string
		e   *entry
		seq uint64
	}
	all := make([]kv, 0, len(s.index))
	for k, e := range s.index {
		all = append(all, kv{key: k, e: e, seq: e.seq.Load()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, it := range all {
		val := make([]byte, it.e.valLen)
		if _, err := s.f.ReadAt(val, it.e.valOff); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if !fn(it.key, val) {
			return nil
		}
	}
	return nil
}

// Sync flushes the log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.f.Sync()
}

// Close flushes and closes the log. Further operations fail (Get misses).
//
// A log whose access order diverged from its append order (any Get
// bumped recency) is compacted first, so the next Open's replay — which
// can only observe file order — reconstructs true last-access recency
// and a post-restart GC evicts genuinely cold artifacts instead of the
// oldest-written (and possibly hottest) ones.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.reordered.Load() && len(s.index) > 0 {
		if err = s.compactLocked(-1); err == nil {
			s.opts.Metrics.Add("store.compact", 1)
		}
		// A failed compaction only loses recency across the restart; the
		// log itself is still intact, so closing proceeds.
	}
	s.closed = true
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Prefixed returns a view of s whose keys are transparently namespaced
// with prefix, so one log file can hold several artifact families
// without key collisions.
func Prefixed(s *Store, prefix string) *PrefixView {
	return &PrefixView{s: s, prefix: prefix}
}

// PrefixView is a key-namespaced view of a Store.
type PrefixView struct {
	s      *Store
	prefix string
}

// Get looks up prefix+key.
func (v *PrefixView) Get(key string) ([]byte, bool) { return v.s.Get(v.prefix + key) }

// Put stores under prefix+key.
func (v *PrefixView) Put(key string, val []byte) error { return v.s.Put(v.prefix+key, val) }

var _ io.Closer = (*Store)(nil)
