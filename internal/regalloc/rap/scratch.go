package rap

import "repro/internal/bitset"

// regScratch is the allocator's reusable dense scratch for the
// per-region helper sets (liveAtEntry, liveAtExit, usedIn, definedIn,
// and the own-refs, running live, vars and subregion-member sets of the
// graph build). These used to be
// map[ir.Reg]bool allocated fresh for every region of every
// build/colour/spill iteration — the hottest allocation sites in the
// walk. Registers are dense small integers, so a bitset (whose ForEach
// iterates ascending, giving the deterministic order the maps needed
// sortRegs for) does the same job with no per-region allocation after
// warm-up.
type regScratch struct {
	// n is the current register universe size (ir.Function.NextReg),
	// refreshed by reanalyze after every code edit.
	n    int
	sets []*bitset.Set
}

// resize records the register universe size buffers must cover. Pooled
// buffers grow lazily on checkout.
func (s *regScratch) resize(n int) { s.n = n }

// getSet checks a cleared bitset with capacity for every register out
// of the pool.
func (s *regScratch) getSet() *bitset.Set {
	if len(s.sets) == 0 {
		return bitset.New(s.n)
	}
	b := s.sets[len(s.sets)-1]
	s.sets = s.sets[:len(s.sets)-1]
	b.Clear()
	b.Grow(s.n)
	return b
}

// putSet returns a checked-out bitset to the pool.
func (s *regScratch) putSet(b *bitset.Set) { s.sets = append(s.sets, b) }
