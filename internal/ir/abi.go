package ir

// Call ABI for allocators that use precolored physical registers instead
// of the interpreter's register-window convention.
//
// The physical register file r1..rk is split into a caller-save half and
// a callee-save half. A call clobbers every caller-save register: the
// interpreter deliberately poisons them after each call from an ABI
// function, so an allocation that leaves a live value in a caller-save
// register across a call fails the differential check (and the static
// verifier flags it independently). Callee-save registers must be
// preserved by the callee — a function that writes one saves it to a
// spill slot in its prologue and restores it before every return.
//
// Return values travel in RetReg (r1, caller-save). Arguments keep the
// memory-style OpArg/argStack protocol: the paper's programs pass at most
// a couple of words, and keeping arguments off the register file means
// the ABI only constrains the call boundary, not the caller's argument
// setup.

// RetReg is the ABI return-value register (r1).
const RetReg Reg = 1

// ClobberPoison is the deterministic garbage value the interpreter writes
// into every caller-save register after a call from an ABI function.
// Poisoning (rather than leaving whatever the callee last held) makes a
// clobber bug reproduce identically under every callee.
const ClobberPoison int64 = -0x5CA1AB1E

// CallerSaveCount returns how many of the k physical registers are
// caller-save: the low half, rounded up, so RetReg is always among them
// (the callee writes it last, the caller reads it immediately).
func CallerSaveCount(k int) int { return (k + 1) / 2 }

// IsCalleeSave reports whether physical register r must be preserved by
// the callee under a k-register ABI.
func IsCalleeSave(r Reg, k int) bool {
	return int(r) > CallerSaveCount(k) && int(r) <= k
}
