// Package canon computes deterministic structural fingerprints for IR
// functions and PDG region subtrees — the cache keys of the persistent
// artifact store (internal/store) and of RAP's incremental region memo.
//
// A fingerprint must cover every input that determines a region's
// allocation and nothing else, so that two subtrees with equal
// fingerprints are guaranteed to allocate identically (modulo the
// register renaming the fingerprint itself canonicalizes):
//
//   - the subtree's structure (region kinds, child order) and every
//     instruction in its span, with registers and labels replaced by
//     canonical ids assigned in order of first occurrence;
//   - the rank permutation of the canonical registers under their
//     numeric order — sort-based tie-breaks inside the allocator (node
//     Key order, spill-cost ties) depend on which register is
//     numerically smaller, so two subtrees are only interchangeable
//     when their register orders are isomorphic;
//   - one "has references outside the subtree" bit per register: the
//     allocator's globality and subregion-locality tests compare
//     whole-function reference counts against in-span counts, and both
//     reduce to in-subtree counts (contents) plus this bit;
//   - the live-in set at every edge leaving the span, restricted to
//     subtree-referenced registers — region-internal liveness is a pure
//     backward-dataflow function of the span's instructions and these
//     boundary sets (registers the subtree never references cannot
//     enter its interference graphs: build deliberately omits
//     live-through registers);
//   - a caller-supplied salt naming k and the allocator configuration.
//
// The fingerprint is a SHA-256 over this canonical serialization.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Fingerprint is a canonical structural hash.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (fp Fingerprint) String() string { return hex.EncodeToString(fp[:]) }

// RegionKey is a region subtree's fingerprint together with the mapping
// from canonical register ids back to the subtree's actual registers:
// Regs[i] is the register with canonical id i+1 (id 0 is ir.None).
// Callers use the mapping to translate a memoized artifact, expressed in
// canonical ids, into this subtree's registers.
type RegionKey struct {
	Fp   Fingerprint
	Regs []ir.Reg
}

// ID returns the canonical id of r under the key (0 when r is not a
// subtree register).
func (k *RegionKey) ID(r ir.Reg) int {
	for i, x := range k.Regs {
		if x == r {
			return i + 1
		}
	}
	return 0
}

// Hasher fingerprints the regions of one function against one analysis
// state. It holds references to the caller's analysis slices — it must
// not be used after the function's instruction list changes.
type Hasher struct {
	f         *ir.Function
	salt      string
	spans     []ir.Span
	succs     [][]int
	liveIn    []*bitset.Set
	totalRefs []int32
}

// NewHasher builds the analysis state (CFG, liveness, reference counts)
// itself — the standalone entry point for tools like rapcc -fingerprint.
func NewHasher(f *ir.Function, salt string) (*Hasher, error) {
	g, err := cfg.Build(f)
	if err != nil {
		return nil, err
	}
	lv := dataflow.ComputeLiveness(g)
	return NewHasherFromAnalysis(f, salt, f.RegionSpans(), g.InstrSuccs, lv.LiveIn, f.RefCounts(nil)), nil
}

// NewHasherFromAnalysis wraps analysis state the caller already computed
// (RAP's allocator reuses its own) without recomputing it. totalRefs is
// indexed by register, as ir.Function.RefCounts returns it.
func NewHasherFromAnalysis(f *ir.Function, salt string, spans []ir.Span, succs [][]int, liveIn []*bitset.Set, totalRefs []int32) *Hasher {
	return &Hasher{f: f, salt: salt, spans: spans, succs: succs, liveIn: liveIn, totalRefs: totalRefs}
}

// canonVersion is folded into every hash; bump it whenever the
// serialization changes so stale stored artifacts miss instead of
// decoding wrongly.
const canonVersion = "rap-canon/v1"

// Region fingerprints the subtree rooted at V.
func (h *Hasher) Region(V *ir.Region) RegionKey {
	w := &writer{h: sha256.New()}
	w.str(canonVersion)
	w.str(h.salt)

	// (1) Subtree structure in preorder; regionIdx names each region by
	// its preorder position so instruction ownership serializes
	// canonically.
	regionIdx := map[int]int{}
	var walk func(r *ir.Region)
	walk = func(r *ir.Region) {
		regionIdx[r.ID] = len(regionIdx)
		w.u64(uint64(r.Kind))
		w.u64(uint64(len(r.Children)))
		for _, c := range r.Children {
			walk(c)
		}
	}
	walk(V)

	span := h.spans[V.ID]
	w.u64(uint64(span.End - span.Start))

	// (2) Instructions with canonical register and label ids (first
	// occurrence order; 0 = none).
	regID := map[ir.Reg]int{}
	var regs []ir.Reg
	cid := func(r ir.Reg) uint64 {
		if r == ir.None {
			return 0
		}
		id, ok := regID[r]
		if !ok {
			id = len(regs) + 1
			regID[r] = id
			regs = append(regs, r)
		}
		return uint64(id)
	}
	labID := map[string]int{}
	lid := func(l string) uint64 {
		if l == "" {
			return 0
		}
		id, ok := labID[l]
		if !ok {
			id = len(labID) + 1
			labID[l] = id
		}
		return uint64(id)
	}
	inCount := map[ir.Reg]int{}
	var buf []ir.Reg
	for i := span.Start; i < span.End; i++ {
		in := h.f.Instrs[i]
		w.u64(uint64(regionIdx[in.Region]))
		w.u64(uint64(in.Op))
		w.u64(cid(in.Dst))
		w.u64(cid(in.Src1))
		w.u64(cid(in.Src2))
		w.u64(uint64(in.Imm))
		w.u64(math.Float64bits(in.FImm))
		w.u64(lid(in.Label))
		w.u64(lid(in.Label2))
		w.str(in.Callee)
		w.u64(uint64(len(in.Args)))
		for _, a := range in.Args {
			w.u64(cid(a))
		}
		buf = in.Uses(buf[:0])
		for _, u := range buf {
			inCount[u]++
		}
		if d := in.Def(); d != ir.None {
			inCount[d]++
		}
	}

	// (3) Rank permutation: position of each canonical register in the
	// numeric order of the subtree's registers.
	sorted := append([]ir.Reg(nil), regs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := make(map[ir.Reg]int, len(sorted))
	for i, r := range sorted {
		rank[r] = i
	}
	for _, r := range regs {
		w.u64(uint64(rank[r]))
	}

	// (4) Outside-reference bit per register.
	for _, r := range regs {
		if int(h.totalRefs[r]) > inCount[r] {
			w.u64(1)
		} else {
			w.u64(0)
		}
	}

	// (5) Exit edges: for every edge leaving the span, the live-in set at
	// its target restricted to subtree registers, as sorted canonical ids.
	for i := span.Start; i < span.End; i++ {
		for si, s := range h.succs[i] {
			if span.Contains(s) {
				continue
			}
			w.u64(uint64(i - span.Start))
			w.u64(uint64(si))
			var ids []uint64
			if s >= 0 && s < len(h.liveIn) {
				for j, r := range regs { // regs is already in canonical id order
					if h.liveIn[s].Has(int(r)) {
						ids = append(ids, uint64(j+1))
					}
				}
			}
			w.u64(uint64(len(ids)))
			for _, id := range ids {
				w.u64(id)
			}
		}
	}

	var fp Fingerprint
	w.h.Sum(fp[:0])
	return RegionKey{Fp: fp, Regs: regs}
}

// Function fingerprints the whole function: the root region subtree plus
// the function-level facts that are not visible in the instruction list.
func (h *Hasher) Function() Fingerprint {
	root := h.Region(h.f.Regions)
	w := &writer{h: sha256.New()}
	w.str(canonVersion + "/func")
	w.h.Write(root.Fp[:])
	w.u64(uint64(h.f.NumParams))
	for _, fl := range h.f.ParamFloat {
		if fl {
			w.u64(1)
		} else {
			w.u64(0)
		}
	}
	if h.f.RetFloat {
		w.u64(1)
	} else {
		w.u64(0)
	}
	w.u64(uint64(h.f.LocalWords))
	var fp Fingerprint
	w.h.Sum(fp[:0])
	return fp
}

// writer streams length-prefixed varint fields into a hash.
type writer struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

func (w *writer) u64(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.h.Write(w.buf[:n])
}

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}
