package serve

import (
	"container/list"
	"encoding/json"
	"sync"

	"repro/internal/obs"
)

// resultStore is the persistent backing a cache may write through to —
// a prefix view of internal/store in production, anything with the same
// shape in tests.
type resultStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// cache is a content-addressed LRU over completed job results. Only
// StatusOK results are stored: a result is cacheable because the
// pipeline is a pure function of the job's cache key (allocation is
// deterministic, and region-level summaries carry no ambient state — see
// DESIGN.md), whereas timeouts and cancellations describe the schedule,
// not the program.
//
// The tier chain is the in-memory LRU, then (with a disk backing) the
// worker's own store; nothing is fetched from another worker. Puts
// write through to disk (JSON-encoded Result) and an in-memory miss
// falls back to disk before reporting a miss, so results survive
// restarts. Disk-served results re-enter memory without being rewritten
// to disk; an entry that does not decode is a miss.
//
// Hit/miss/eviction counts go to the shared metrics registry under
// serve.cache.*; the disk's own traffic appears under store.*.
type cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	m     *obs.Metrics
	disk  resultStore // nil = memory only
}

type cacheEntry struct {
	key string
	res Result
}

// newCache returns an LRU bound to capacity entries; capacity <= 0
// disables caching (every lookup misses, nothing is stored).
func newCache(capacity int, m *obs.Metrics) *cache {
	return &cache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}, m: m}
}

// get returns the cached result for key, marking it most recently used.
// A memory miss falls back to the disk backing. The returned Result is a
// shared value: callers stamp their own ID and Cached flag on the copy
// and must not mutate the slices.
func (c *cache) get(key string) (Result, bool) {
	if c.cap <= 0 {
		c.m.Add("serve.cache.misses", 1)
		return Result{}, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		c.m.Add("serve.cache.hits", 1)
		return res, true
	}
	c.mu.Unlock()
	if c.disk != nil {
		if raw, ok := c.disk.Get(key); ok {
			var res Result
			if err := json.Unmarshal(raw, &res); err == nil {
				c.putMem(key, res) // back into memory; no rewrite to disk
				c.m.Add("serve.cache.hits", 1)
				c.m.Add("serve.cache.disk_hits", 1)
				return res, true
			}
		}
	}
	c.m.Add("serve.cache.misses", 1)
	return Result{}, false
}

// put stores res under key in memory and, when backed, on disk.
// Capacity <= 0 disables both layers.
func (c *cache) put(key string, res Result) {
	if c.cap <= 0 {
		return
	}
	c.putMem(key, res)
	if c.disk != nil && res.Status == StatusOK {
		if raw, err := json.Marshal(res); err == nil {
			_ = c.disk.Put(key, raw) // a failed write only loses future reuse
		}
	}
}

// putMem stores res in the in-memory LRU only, evicting the least
// recently used entry past capacity.
func (c *cache) putMem(key string, res Result) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	c.m.Add("serve.cache.entries", 1)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.m.Add("serve.cache.evictions", 1)
		c.m.Add("serve.cache.entries", -1)
	}
}

// len reports the current entry count.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
