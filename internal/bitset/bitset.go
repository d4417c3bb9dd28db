// Package bitset provides a dense bit set used by the dataflow analyses.
package bitset

import (
	"math/bits"
	"slices"
)

// Set is a fixed-capacity bit set over the integers [0, n).
type Set struct {
	words []uint64
}

// New returns a set with capacity for n elements.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// Batch is storage for an array of sets carved out of one backing
// allocation, so an analysis that is recomputed many times can recycle
// one allocation.
type Batch struct {
	words []uint64
	sets  []Set
	ptrs  []*Set
}

// Carve returns count empty sets, each with capacity n, carved out of the
// batch's storage; the zero Batch carves a fresh allocation. Sets from a
// previous Carve share that storage and must no longer be used. Storage
// that must grow grows as append grows it, leaving room for the next
// Carve.
func (b *Batch) Carve(count, n int) []*Set {
	words := (n + 63) / 64
	b.words = slices.Grow(b.words[:0], count*words)[:count*words]
	b.sets = slices.Grow(b.sets[:0], count)[:count]
	b.ptrs = slices.Grow(b.ptrs[:0], count)[:count]
	clear(b.words)
	for i := range b.ptrs {
		b.sets[i].words = b.words[i*words : (i+1)*words : (i+1)*words]
		b.ptrs[i] = &b.sets[i]
	}
	return b.ptrs
}

// Add inserts i into the set. It panics if i is out of range.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Grow extends the set's capacity to at least n elements, preserving
// contents. It never shrinks. The zero Set is valid and grows from
// capacity 0, which lets callers embed Set by value and size it lazily.
func (s *Set) Grow(n int) {
	need := (n + 63) / 64
	for len(s.words) < need {
		s.words = append(s.words, 0)
	}
}

// Cap returns the element capacity (a multiple of 64).
func (s *Set) Cap() int { return len(s.words) * 64 }

// Remove deletes i from the set.
func (s *Set) Remove(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	w := i >> 6
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(uint(i)&63)) != 0
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Copy overwrites s with the contents of t (capacities must match).
func (s *Set) Copy(t *Set) {
	copy(s.words, t.words)
}

// UnionWith adds every element of t to s and reports whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	changed := false
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// DiffWith removes every element of t from s.
func (s *Set) DiffWith(t *Set) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// IntersectWith keeps only elements also in t and reports whether s
// changed (the meet operation of must-analyses, which iterate on the
// changed signal).
func (s *Set) IntersectWith(t *Set) bool {
	changed := false
	for i, w := range t.words {
		nw := s.words[i] & w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Fill adds every integer in [0, n) to the set.
func (s *Set) Fill(n int) {
	for i := 0; i < n>>6; i++ {
		s.words[i] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		s.words[n>>6] |= (1 << rem) - 1
	}
}

// Equal reports whether s and t hold the same elements.
func (s *Set) Equal(t *Set) bool {
	for i, w := range t.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...)}
}

// ForEach calls f for each element in increasing order.
func (s *Set) ForEach(f func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*64 + b)
			w &= w - 1
		}
	}
}

// Elems returns the elements in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}
