// Package verify implements an independent allocation verifier: given the
// pre-allocation (virtual-register) and post-allocation (k physical
// registers) versions of a program, it proves the invariants the paper
// relies on when asserting that both allocators are semantics-preserving
// (§2, Fig. 2; §3.3, Fig. 6):
//
//  1. structure  — the allocated unit declares Allocated with the right K,
//     keeps the function set, signatures, frame layout and globals of the
//     original, and every spill access stays inside the declared frame;
//  2. k-bound    — every register operand lies in [1, k]. This also
//     discharges the pressure obligation: code that names only k
//     registers can never hold more than k live values;
//  3. renaming   — the allocated body is an instruction-by-instruction
//     renaming of the original modulo inserted spill (lds/sts) and copy
//     (i2i) code: anchors match in order with identical non-register
//     operands, and a relational dataflow proves every physical operand
//     holds the value of the virtual register it replaces;
//  4. interference — no overwrite destroys the only copy of a value that
//     is still live in the original (two simultaneously-live values never
//     share a physical register);
//  5. spill balance — spill loads are balanced against stores to a
//     consistent stack slot.
//
// The renaming and interference checks read one relational forward
// dataflow (facts.go), whose state gives every location the set of
// original registers whose value it holds. The locations that no path has
// written since entry all hold one shared register set; each written
// location holds a small sorted set of its own. The fixpoint sweeps the
// blocks in reverse postorder and re-runs only those whose entry state
// changed.
//
// The verifier is deliberately independent of the allocators: it reuses
// only the IR, the CFG builder and the dataflow analyses, and recomputes
// everything else from the two instruction streams.
package verify

import (
	"errors"
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Options is empty: every verification runs every check. The type stays
// in the signatures so callers that pass Options{}, the benchmark module
// among them, keep compiling.
type Options struct{}

// maxErrors caps the reported issues per function.
const maxErrors = 8

// Program verifies every function of alloc against its counterpart in
// orig. orig must be the unallocated program the allocator started from:
// callers lower the source once, allocate a Clone of the result and pass
// the program they cloned as orig.
func Program(orig, alloc *ir.Program, k int, opts Options) error {
	var errs []error
	if orig.GlobalWords != alloc.GlobalWords {
		errs = append(errs, fmt.Errorf("global words changed: %d -> %d", orig.GlobalWords, alloc.GlobalWords))
	}
	if len(orig.GlobalInit) != len(alloc.GlobalInit) {
		errs = append(errs, fmt.Errorf("global initializer count changed: %d -> %d", len(orig.GlobalInit), len(alloc.GlobalInit)))
	} else {
		for a, v := range orig.GlobalInit {
			if alloc.GlobalInit[a] != v {
				errs = append(errs, fmt.Errorf("global init at %d changed: %d -> %d", a, v, alloc.GlobalInit[a]))
			}
		}
	}
	if len(orig.Funcs) != len(alloc.Funcs) {
		errs = append(errs, fmt.Errorf("function count changed: %d -> %d", len(orig.Funcs), len(alloc.Funcs)))
	} else {
		for i, of := range orig.Funcs {
			af := alloc.Funcs[i]
			if of.Name != af.Name {
				errs = append(errs, fmt.Errorf("function %d renamed: %s -> %s", i, of.Name, af.Name))
				continue
			}
			if err := Function(of, af, k, opts); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("verify: %w", errors.Join(errs...))
}

// Function verifies one allocated function against its unallocated
// original.
func Function(orig, alloc *ir.Function, k int, opts Options) error {
	v := &fnVerifier{orig: orig, alloc: alloc, k: k}
	v.checkStructure()
	if alloc.ABI {
		v.checkABI()
	}
	v.checkKBound()
	if len(v.errs) > 0 {
		// Registers out of range would index the fact table out of
		// bounds; report what we have.
		return v.err()
	}
	g, err := cfg.Build(alloc)
	if err != nil {
		v.errorf("allocated code has a broken CFG: %v", err)
		return v.err()
	}
	v.checkBalance(g)
	if al, err := buildAlignment(orig, alloc); err != nil {
		v.errs = append(v.errs, err)
	} else {
		v.checkFacts(g, al)
	}
	return v.err()
}

// fnVerifier carries one function pair's verification state.
type fnVerifier struct {
	orig, alloc *ir.Function
	k           int
	errs        []error
}

func (v *fnVerifier) errorf(format string, args ...any) {
	if len(v.errs) <= maxErrors {
		v.errs = append(v.errs, fmt.Errorf("%s: "+format, append([]any{v.alloc.Name}, args...)...))
	}
}

func (v *fnVerifier) full() bool { return len(v.errs) > maxErrors }

func (v *fnVerifier) err() error {
	if len(v.errs) == 0 {
		return nil
	}
	return errors.Join(v.errs...)
}

// checkStructure verifies the declared shape of the allocated function.
func (v *fnVerifier) checkStructure() {
	o, a := v.orig, v.alloc
	if o.Allocated {
		v.errorf("original is already allocated")
	}
	if !a.Allocated {
		v.errorf("not marked allocated")
	}
	if a.K != v.k {
		v.errorf("declares k=%d, expected %d", a.K, v.k)
	}
	if a.NumParams != o.NumParams {
		v.errorf("parameter count changed: %d -> %d", o.NumParams, a.NumParams)
	}
	if a.LocalWords != o.LocalWords {
		v.errorf("frame local words changed: %d -> %d", o.LocalWords, a.LocalWords)
	}
	if a.SpillSlots < 0 {
		v.errorf("negative spill slot count %d", a.SpillSlots)
	}
}

// checkKBound re-checks, independently of regalloc.CheckPhysical, that
// every register operand lies in [1, k] and every spill access stays
// inside the declared spill area.
func (v *fnVerifier) checkKBound() {
	var buf []ir.Reg
	for i, in := range v.alloc.Instrs {
		buf = in.Uses(buf[:0])
		if d := in.Def(); d != ir.None {
			buf = append(buf, d)
		}
		for _, r := range buf {
			if int(r) < 1 || int(r) > v.k {
				v.errorf("instr %d (%s): register %s outside [1,%d]", i, in, r, v.k)
				if v.full() {
					return
				}
			}
		}
		if in.Op == ir.OpLdSpill || in.Op == ir.OpStSpill {
			if in.Imm < 0 || in.Imm >= int64(v.alloc.SpillSlots) {
				v.errorf("instr %d (%s): spill slot %d outside frame [0,%d)", i, in, in.Imm, v.alloc.SpillSlots)
				if v.full() {
					return
				}
			}
		}
	}
}
