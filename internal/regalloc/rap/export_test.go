package rap

import (
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Analysis is the allocator's analysis state as a reanalysis left it.
type Analysis struct {
	F         *ir.Function
	G         *cfg.Graph
	LV        *dataflow.Liveness
	DU        *dataflow.DefUse
	Spans     []ir.Span
	TotalRefs []int32
	// Jumpers is the label→branch index spill insertion would use.
	Jumpers map[string][]int
}

// SetReanalyzeCheck makes every reanalysis pass its result to check
// until the returned restore runs. A test using it must not run in
// parallel with other tests of the package.
func SetReanalyzeCheck(check func(Analysis)) (restore func()) {
	afterReanalyze = func(a *allocator) {
		check(Analysis{F: a.f, G: a.g, LV: a.lv, DU: a.du, Spans: a.spans, TotalRefs: a.totalRefs,
			Jumpers: a.labelJumpers()})
	}
	return func() { afterReanalyze = nil }
}
