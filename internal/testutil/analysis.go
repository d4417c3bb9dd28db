package testutil

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
)

// SizeExtremePairs compiles the randprog programs of seeds 1..seeds and
// pairs each of the m smallest functions (by instruction count) with
// each of the m largest, in both orders: inputs for checking that an
// analysis recomputed into the storage of one function's analysis
// matches a fresh analysis of another, larger or smaller, function.
func SizeExtremePairs(seeds, m int) ([][2]*ir.Function, error) {
	var funcs []*ir.Function
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p, err := Compile(randprog.Generate(seed, randprog.DefaultConfig()), lower.Options{})
		if err != nil {
			return nil, fmt.Errorf("randprog seed %d: %w", seed, err)
		}
		funcs = append(funcs, p.Funcs...)
	}
	slices.SortStableFunc(funcs, func(a, b *ir.Function) int { return len(a.Instrs) - len(b.Instrs) })
	m = min(m, len(funcs)/2)
	var pairs [][2]*ir.Function
	for _, small := range funcs[:m] {
		for _, large := range funcs[len(funcs)-m:] {
			pairs = append(pairs, [2]*ir.Function{small, large}, [2]*ir.Function{large, small})
		}
	}
	return pairs, nil
}

// sameInts compares two index lists, treating nil and empty as equal.
func sameInts(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b)) }

// SameCFG returns an error naming the first field where got differs from
// want: the function, InstrSuccs, InstrPreds, BlockOf, or a block's
// range, Succs or Preds.
func SameCFG(got, want *cfg.Graph) error {
	if got.F != want.F {
		return fmt.Errorf("F = %s, want %s", got.F.Name, want.F.Name)
	}
	if len(got.InstrSuccs) != len(want.InstrSuccs) || len(got.InstrPreds) != len(want.InstrPreds) {
		return fmt.Errorf("instruction tables have %d/%d entries, want %d/%d",
			len(got.InstrSuccs), len(got.InstrPreds), len(want.InstrSuccs), len(want.InstrPreds))
	}
	for i := range want.InstrSuccs {
		if !sameInts(got.InstrSuccs[i], want.InstrSuccs[i]) {
			return fmt.Errorf("InstrSuccs[%d] = %v, want %v", i, got.InstrSuccs[i], want.InstrSuccs[i])
		}
		if !sameInts(got.InstrPreds[i], want.InstrPreds[i]) {
			return fmt.Errorf("InstrPreds[%d] = %v, want %v", i, got.InstrPreds[i], want.InstrPreds[i])
		}
	}
	if !sameInts(got.BlockOf, want.BlockOf) {
		return fmt.Errorf("BlockOf = %v, want %v", got.BlockOf, want.BlockOf)
	}
	if len(got.Blocks) != len(want.Blocks) {
		return fmt.Errorf("%d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	for b, wb := range want.Blocks {
		gb := got.Blocks[b]
		if gb.ID != wb.ID || gb.Start != wb.Start || gb.End != wb.End ||
			!sameInts(gb.Succs, wb.Succs) || !sameInts(gb.Preds, wb.Preds) {
			return fmt.Errorf("block %d = %+v, want %+v", b, *gb, *wb)
		}
	}
	return nil
}

// SameLiveness returns an error naming the first set where got differs
// from want in contents or capacity.
func SameLiveness(got, want *dataflow.Liveness) error {
	if got.NumRegs != want.NumRegs || len(got.LiveIn) != len(want.LiveIn) || len(got.LiveOut) != len(want.LiveOut) {
		return fmt.Errorf("%d regs, %d/%d sets; want %d regs, %d/%d sets", got.NumRegs,
			len(got.LiveIn), len(got.LiveOut), want.NumRegs, len(want.LiveIn), len(want.LiveOut))
	}
	for i := range want.LiveIn {
		if err := sameSet("LiveIn", i, got.LiveIn[i], want.LiveIn[i]); err != nil {
			return err
		}
		if err := sameSet("LiveOut", i, got.LiveOut[i], want.LiveOut[i]); err != nil {
			return err
		}
	}
	return nil
}

func sameSet(name string, i int, got, want *bitset.Set) error {
	if got.Cap() != want.Cap() || !got.Equal(want) {
		return fmt.Errorf("%s[%d] = %v (cap %d), want %v (cap %d)", name, i, got.Elems(), got.Cap(), want.Elems(), want.Cap())
	}
	return nil
}

// SameDefUse returns an error naming the first register whose Defs,
// Uses, reached uses (from each of its definitions) or reaching
// definitions (of all its uses) differ between got and want. The walks
// are compared for the registers reach selects, or for every register
// when reach is nil.
func SameDefUse(got, want *dataflow.DefUse, reach func(ir.Reg) bool) error {
	if got.NumRegs != want.NumRegs {
		return fmt.Errorf("NumRegs = %d, want %d", got.NumRegs, want.NumRegs)
	}
	for r := ir.Reg(0); int(r) <= want.NumRegs; r++ {
		if g, w := got.Defs(r), want.Defs(r); !slices.Equal(g, w) {
			return fmt.Errorf("Defs(%s) = %v, want %v", r, g, w)
		}
		if g, w := got.Uses(r), want.Uses(r); !slices.Equal(g, w) {
			return fmt.Errorf("Uses(%s) = %v, want %v", r, g, w)
		}
		if reach != nil && !reach(r) {
			continue
		}
		for _, d := range want.Defs(r) {
			if g, w := got.ReachedUses([]int{d}, r, nil), want.ReachedUses([]int{d}, r, nil); !slices.Equal(g, w) {
				return fmt.Errorf("ReachedUses(%d, %s) = %v, want %v", d, r, g, w)
			}
		}
		if g, w := got.ReachingDefs(want.Uses(r), r), want.ReachingDefs(want.Uses(r), r); !slices.Equal(g, w) {
			return fmt.Errorf("ReachingDefs(uses of %s) = %v, want %v", r, g, w)
		}
	}
	return nil
}
