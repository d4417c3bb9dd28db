// Package bench contains the paper's benchmark suite — 13 Livermore
// Loops, the cLinpack routines, heapsort, hanoi, sieve, and Stanford
// routines (§4) — rewritten in MiniC, plus the harness that regenerates
// Table 1: the percentage decrease in executed cycles of RAP-allocated
// versus GRA-allocated code for register set sizes 3, 5, 7 and 9, split
// into the load and store contributions. As a reproduction extension
// each cell also carries the iterated-register-coalescing backend
// ("irc") measured against the same GRA baseline.
package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/obs"
)

// Program is one benchmark program and the routines Table 1 reports on.
type Program struct {
	Name   string
	Source string
	// Funcs lists the measured routines in the paper's row order.
	Funcs []string
}

// Programs returns the full Table 1 suite.
func Programs() []Program {
	return []Program{
		{
			Name:   "livermore",
			Source: livermoreSrc,
			Funcs: []string{
				"loop1", "loop2", "loop3", "loop4", "loop5", "loop6", "loop7",
				"loop8", "loop9", "loop10", "loop11", "loop12", "loop13",
			},
		},
		{
			Name:   "clinpack",
			Source: linpackSrc,
			Funcs:  []string{"matgen", "dgefa", "daxpy", "dscal", "idamax", "ddot", "dmxpy"},
		},
		{
			Name:   "hsort",
			Source: hsortSrc,
			Funcs:  []string{"hsort", "siftdown"},
		},
		{
			Name:   "hanoi",
			Source: hanoiSrc,
			Funcs:  []string{"main", "mov"},
		},
		{
			Name:   "sieve",
			Source: sieveSrc,
			Funcs:  []string{"nsieve", "seive"},
		},
		{
			Name:   "perm",
			Source: permSrc,
			Funcs:  []string{"permute", "swap", "initialize"},
		},
		{
			Name:   "intmm",
			Source: intmmSrc,
			Funcs:  []string{"initmatrix", "innerproduct", "intmm"},
		},
		{
			Name:   "puzzle",
			Source: puzzleSrc,
			Funcs:  []string{"fit", "place", "trial", "remove", "puzzle"},
		},
		{
			Name:   "queens",
			Source: queensSrc,
			Funcs:  []string{"queens", "try", "doit"},
		},
	}
}

// ProgramByName returns the named program, or nil.
func ProgramByName(name string) *Program {
	for _, p := range Programs() {
		if p.Name == name {
			return &p
		}
	}
	return nil
}

// Ks is the paper's register set sizes.
var Ks = []int{3, 5, 7, 9}

// Row is one Table 1 row: a routine measured at every register set size.
type Row struct {
	Program string
	Func    string
	ByK     map[int]core.Measurement
}

// Table1 measures the whole suite (or the subset named in only, if
// non-empty) and returns the rows in the paper's order.
func Table1(ks []int, cfg core.CompareConfig, only ...string) ([]Row, error) {
	return Measure(Programs(), ks, cfg, only...)
}

// Table1Context is Table1 with cancellation: a cancelled ctx stops
// pending and in-flight (program, k) units and returns ctx's error.
func Table1Context(ctx context.Context, ks []int, cfg core.CompareConfig, only ...string) ([]Row, error) {
	return MeasureContext(ctx, Programs(), ks, cfg, only...)
}

// Measure runs the comparison over an arbitrary program set (Programs()
// for the paper's table, append ExtraPrograms() for the extended suite).
// The independent (program, k) units run through fuzz.Sweep on
// cfg.Parallel workers, which take them k-major: every program at the
// first k, then every program at the next, so workers that start together
// work on different programs instead of waiting on one program's shared
// reference. Rows are assembled program-major, and every unit records
// into cfg.Trace's one registry, whose counters and histograms are sums,
// so the result — rows, Table 1 text, and the deterministic metrics
// snapshot — is identical to the sequential run's. The error returned is
// the lowest failing unit's in k-major order, and no higher unit starts
// once a unit has failed.
func Measure(progs []Program, ks []int, cfg core.CompareConfig, only ...string) ([]Row, error) {
	return measure(context.Background(), progs, ks, cfg, nil, only...)
}

// MeasureContext is Measure with cancellation (see Table1Context).
func MeasureContext(ctx context.Context, progs []Program, ks []int, cfg core.CompareConfig, only ...string) ([]Row, error) {
	return measure(ctx, progs, ks, cfg, nil, only...)
}

// MeasureTimed is Measure, additionally recording each (program, k)
// comparison's wall clock into m as a timing named
// "bench.<program>.k<k>" and threading m's tracer context through the
// compilations, so m attributes time to pipeline phases as well as
// benchmarks. The unallocated reference is compiled once per program and
// shared across its ks; its cost lands in the first unit's wall clock.
func MeasureTimed(progs []Program, ks []int, cfg core.CompareConfig, m *obs.Metrics, only ...string) ([]Row, error) {
	return MeasureTimedContext(context.Background(), progs, ks, cfg, m, only...)
}

// MeasureTimedContext is MeasureTimed with cancellation (see
// Table1Context).
func MeasureTimedContext(ctx context.Context, progs []Program, ks []int, cfg core.CompareConfig, m *obs.Metrics, only ...string) ([]Row, error) {
	if m == nil {
		return MeasureContext(ctx, progs, ks, cfg, only...)
	}
	if cfg.Trace == nil {
		cfg.Trace = obs.New().WithMetrics(m)
	}
	return measure(ctx, progs, ks, cfg, m, only...)
}

// measure is the shared harness behind Measure and MeasureTimed. The unit
// of work is one (program, k) comparison; the unallocated reference for
// each program is compiled once (guarded by a sync.Once so concurrent
// units of the same program share it) and is read-only afterwards.
func measure(ctx context.Context, progs []Program, ks []int, cfg core.CompareConfig, m *obs.Metrics, only ...string) ([]Row, error) {
	if len(ks) == 0 {
		ks = Ks
	}
	wanted := map[string]bool{}
	for _, n := range only {
		wanted[n] = true
	}
	var sel []Program
	for _, prog := range progs {
		if len(wanted) > 0 && !wanted[prog.Name] {
			continue
		}
		sel = append(sel, prog)
	}

	refs := make([]*core.RefRun, len(sel))
	refErrs := make([]error, len(sel))
	refOnce := make([]sync.Once, len(sel))
	getRef := func(pi int, pcfg core.CompareConfig) (*core.RefRun, error) {
		refOnce[pi].Do(func() {
			refs[pi], refErrs[pi] = core.CompileRef(sel[pi].Source, pcfg)
		})
		return refs[pi], refErrs[pi]
	}

	nu := len(sel) * len(ks)
	results := make([][]core.Measurement, nu)
	errs := make([]error, nu)
	// Unit u = (program u%len(sel), k u/len(sel)) writes only its own
	// results slot, indexed program-major, and its errs slot, indexed by
	// unit; the metrics registry and the reference table serialize
	// internally.
	done := fuzz.Sweep(int64(nu), cfg.Parallel, func(u int64) bool {
		pi, ki := int(u)%len(sel), int(u)/len(sel)
		prog, k := sel[pi], ks[ki]
		if errs[u] = ctx.Err(); errs[u] != nil {
			return false
		}
		pcfg := cfg
		pcfg.Funcs = prog.Funcs
		start := time.Now()
		ref, err := getRef(pi, pcfg)
		if err == nil {
			results[pi*len(ks)+ki], err = compareUnit(ctx, k, pcfg, ref)
		}
		if err != nil {
			errs[u] = fmt.Errorf("%s: %w", prog.Name, err)
			return false
		}
		if m != nil {
			m.Observe(fmt.Sprintf("bench.%s.k%d", prog.Name, k), time.Since(start))
		}
		return true
	})
	if done < int64(nu) {
		return nil, errs[done]
	}

	var rows []Row
	for pi, prog := range sel {
		byFunc := map[string]map[int]core.Measurement{}
		for ki := range ks {
			for _, mm := range results[pi*len(ks)+ki] {
				if byFunc[mm.Func] == nil {
					byFunc[mm.Func] = map[int]core.Measurement{}
				}
				byFunc[mm.Func][mm.K] = mm
			}
		}
		for _, fn := range prog.Funcs {
			if byFunc[fn] == nil {
				continue
			}
			rows = append(rows, Row{Program: prog.Name, Func: fn, ByK: byFunc[fn]})
		}
	}
	return rows, nil
}

// compareUnit runs one (program, k) comparison behind the fuzz isolation
// boundary, so a panic inside one unit becomes that unit's error instead
// of taking down the whole suite.
func compareUnit(ctx context.Context, k int, cfg core.CompareConfig, ref *core.RefRun) ([]core.Measurement, error) {
	var ms []core.Measurement
	err := fuzz.RunIsolated(ctx, 0, func(cctx context.Context) error {
		var uerr error
		ms, uerr = core.CompareAtKContext(cctx, k, cfg, ref)
		return uerr
	})
	if err != nil {
		// On the cancel path the unit's goroutine may still be writing
		// ms; return nil without touching it.
		return nil, err
	}
	return ms, nil
}

// Summary aggregates a Table 1 run the way the paper's last row and §4
// prose do.
type Summary struct {
	K int
	// AvgTotal is the average percentage decrease in cycles across rows.
	AvgTotal float64
	// AvgLoads / AvgStores are the load and store contributions.
	AvgLoads  float64
	AvgStores float64
	// AvgIRC is the average percentage decrease of the IRC backend versus
	// GRA (often negative: IRC pays real ABI costs the window convention
	// never charges — see the README's Allocators section).
	AvgIRC float64
	// Wins counts rows with a positive decrease; Rows counts all rows.
	Wins, Rows int
}

// Summarize computes per-k averages over the rows.
func Summarize(rows []Row, ks []int) []Summary {
	var out []Summary
	for _, k := range ks {
		s := Summary{K: k}
		for _, r := range rows {
			m, ok := r.ByK[k]
			if !ok {
				continue
			}
			s.Rows++
			s.AvgTotal += m.PctTotal()
			s.AvgLoads += m.PctLoads()
			s.AvgStores += m.PctStores()
			s.AvgIRC += m.PctIRCTotal()
			if m.PctTotal() > 0 {
				s.Wins++
			}
		}
		if s.Rows > 0 {
			s.AvgTotal /= float64(s.Rows)
			s.AvgLoads /= float64(s.Rows)
			s.AvgStores /= float64(s.Rows)
			s.AvgIRC /= float64(s.Rows)
		}
		out = append(out, s)
	}
	return out
}

// OverallAverage is the paper's single headline number: the mean of the
// per-k average percentage decreases (the paper reports 2.7).
func OverallAverage(sums []Summary) float64 {
	if len(sums) == 0 {
		return 0
	}
	t := 0.0
	for _, s := range sums {
		t += s.AvgTotal
	}
	return t / float64(len(sums))
}

// Format renders rows in the layout of the paper's Table 1: one row per
// routine, and per register set size the total/load/store percentage
// decreases of RAP versus GRA, plus — a reproduction extension — the
// percentage decrease of the IRC backend versus GRA in the trailing
// "irc" column. A blank entry means the routine executed no spill code
// under any allocator at that k and all three agree on cycles (as in
// the paper).
func Format(rows []Row, ks []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s", "program", "routine")
	for _, k := range ks {
		fmt.Fprintf(&b, " |%27s", fmt.Sprintf("k=%d  tot    ld    st   irc", k))
	}
	b.WriteString("\n")
	width := 27 + len(ks)*29
	b.WriteString(strings.Repeat("-", width))
	b.WriteString("\n")
	cell := func(m core.Measurement, ok bool) string {
		// Blank entry when no allocation contains spill code at this k
		// and the backends agree on cycles, exactly as in the paper's
		// table... except that a copy-elimination or ABI difference
		// still shows (the paper's k=9 column keeps such entries).
		if !ok || (!m.HasSpillCode() && m.GRA.Cycles == m.RAP.Cycles && m.GRA.Cycles == m.IRC.Cycles) {
			return fmt.Sprintf(" |%27s", "")
		}
		return fmt.Sprintf(" |%7.1f%6.1f%6.1f%6.1f  ", m.PctTotal(), m.PctLoads(), m.PctStores(), m.PctIRCTotal())
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-14s", r.Program, r.Func)
		for _, k := range ks {
			m, ok := r.ByK[k]
			b.WriteString(cell(m, ok))
		}
		b.WriteString("\n")
	}
	b.WriteString(strings.Repeat("-", width))
	b.WriteString("\n")
	sums := Summarize(rows, ks)
	fmt.Fprintf(&b, "%-27s", "Average")
	for _, s := range sums {
		fmt.Fprintf(&b, " |%7.1f%6.1f%6.1f%6.1f  ", s.AvgTotal, s.AvgLoads, s.AvgStores, s.AvgIRC)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-27s", "Wins (pct > 0)")
	for _, s := range sums {
		fmt.Fprintf(&b, " |%20d of %-4d", s.Wins, s.Rows)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "Overall average percentage decrease: %.1f (paper: 2.7)\n", OverallAverage(sums))
	return b.String()
}

// WriteCSV emits the Table 1 rows in machine-readable form: one record
// per (routine, k) with the raw counters and the paper's percentages.
func WriteCSV(w io.Writer, rows []Row, ks []int) error {
	cw := csv.NewWriter(w)
	header := []string{
		"program", "routine", "k",
		"gra_cycles", "gra_loads", "gra_stores", "gra_copies",
		"rap_cycles", "rap_loads", "rap_stores", "rap_copies",
		"irc_cycles", "irc_loads", "irc_stores", "irc_copies",
		"pct_total", "pct_loads", "pct_stores", "pct_copies", "pct_irc_total",
		"gra_size", "rap_size", "irc_size",
		"gra_spill_ops", "rap_spill_ops", "irc_spill_ops",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	ii := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, r := range rows {
		for _, k := range ks {
			m, ok := r.ByK[k]
			if !ok {
				continue
			}
			rec := []string{
				r.Program, r.Func, strconv.Itoa(k),
				ii(m.GRA.Cycles), ii(m.GRA.Loads), ii(m.GRA.Stores), ii(m.GRA.Copies),
				ii(m.RAP.Cycles), ii(m.RAP.Loads), ii(m.RAP.Stores), ii(m.RAP.Copies),
				ii(m.IRC.Cycles), ii(m.IRC.Loads), ii(m.IRC.Stores), ii(m.IRC.Copies),
				ff(m.PctTotal()), ff(m.PctLoads()), ff(m.PctStores()), ff(m.PctCopies()), ff(m.PctIRCTotal()),
				strconv.Itoa(m.GRASize), strconv.Itoa(m.RAPSize), strconv.Itoa(m.IRCSize),
				strconv.Itoa(m.GRASpillOps), strconv.Itoa(m.RAPSpillOps), strconv.Itoa(m.IRCSpillOps),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
