// Package fleet turns the single-node batch-allocation service into a
// horizontally scalable system: a router that consistent-hashes jobs by
// their content address onto N rapserved workers, with health checking
// and requeue on worker loss. Each job has one attempt in flight at a
// time, and a job that two workers die with is failed, not requeued.
// Workers share nothing: each keeps its own artifact store.
//
// The package serves no HTTP itself. The Router is a serve.Backend, and
// serve.NewServer(router) gives it the worker's own endpoints and
// request limits.
//
// The routing key is the job's cache key (serve.Job.CacheKey — a
// SHA-256 over the source text and every result-determining pipeline
// option, salted by k and the allocator configuration, excluding the
// job's ID and timeout). Using the cache key as the ring key is what
// makes the fleet's caches compose: every resubmission of the same work
// lands on the worker that already holds the result, so the fleet-wide
// hit rate approaches the single-node hit rate without any shared
// mutable state. See DESIGN.md §"Fleet".
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is an immutable consistent-hash ring over a fixed worker set.
// Each worker owns vnodes points on the ring; a key routes to the first
// point clockwise from its own hash. Lookup returns replicas in
// preference order, so the requeue path walks the same sequence every
// router instance would — deterministic, coordination-free placement.
type Ring struct {
	workers []string
	points  []point
}

type point struct {
	h uint64
	w int // index into workers
}

// DefaultVNodes balances a small fleet to within a few percent while
// keeping the ring cheap to build and search.
const DefaultVNodes = 64

// hash64 is the ring's hash: the first 8 bytes of SHA-256, matching the
// strength of the content addresses used as keys and identical across
// processes and restarts (no seed, no process state).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over workers (base URLs or any stable names)
// with vnodes points each (<= 0 uses DefaultVNodes). Worker order does
// not matter; duplicate workers are an error.
func NewRing(workers []string, vnodes int) (*Ring, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one worker")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	ws := append([]string(nil), workers...)
	sort.Strings(ws) // point order must not depend on argument order
	r := &Ring{workers: ws, points: make([]point, 0, len(ws)*vnodes)}
	for i, w := range ws {
		if seen[w] {
			return nil, fmt.Errorf("fleet: duplicate worker %q", w)
		}
		seen[w] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{h: hash64(fmt.Sprintf("%s#%d", w, v)), w: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].w < r.points[j].w
	})
	return r, nil
}

// Workers returns the ring's member set (sorted).
func (r *Ring) Workers() []string { return append([]string(nil), r.workers...) }

// Lookup returns up to n distinct workers for key in preference order:
// the key's owner first, then each successive distinct worker clockwise
// — the requeue targets on owner loss. n <= 0 or n > len(workers)
// returns every worker.
func (r *Ring) Lookup(key string, n int) []string {
	if n <= 0 || n > len(r.workers) {
		n = len(r.workers)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, n)
	taken := make([]bool, len(r.workers))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.w] {
			taken[p.w] = true
			out = append(out, r.workers[p.w])
		}
	}
	return out
}
