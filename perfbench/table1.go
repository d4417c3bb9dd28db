package main

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
)

// The table1 gate: Table 1's text and CSV, generated from the seed
// commit (overall average 0.6; wins 21, 33, 39 and 40 of 40).
var (
	//go:embed expected/table1.txt
	table1Text string
	//go:embed expected/table1.csv
	table1CSV string
)

// table1Units is the number of (program, k) units in one Table 1 pass.
var table1Units = len(bench.Programs()) * len(bench.Ks)

// table1Output renders rows as Table 1's text and CSV.
func table1Output(rows []bench.Row) (text, csv string, err error) {
	var b strings.Builder
	if err := bench.WriteCSV(&b, rows, bench.Ks); err != nil {
		return "", "", err
	}
	return bench.Format(rows, bench.Ks), b.String(), nil
}

// table1Check reports whether rows reproduce the expected Table 1.
func table1Check(rows []bench.Row) error {
	text, csv, err := table1Output(rows)
	if err != nil {
		return err
	}
	if text != table1Text {
		return fmt.Errorf("table 1 text differs from expected/table1.txt:\n%s", text)
	}
	if csv != table1CSV {
		return fmt.Errorf("table 1 CSV differs from expected/table1.csv")
	}
	return nil
}

// table1Setup compiles and runs every suite program unallocated once:
// it checks the inputs and warms the process before the timed passes.
func table1Setup() error {
	for _, p := range bench.Programs() {
		if _, err := core.CompileRef(p.Source, core.CompareConfig{}); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return nil
}

// table1Quality sums the static and dynamic quality guards over every
// (routine, k) cell and allocator, and reads RAP's overall average
// decrease the way Table 1's text prints it.
func table1Quality(rows []bench.Row, extra map[string]float64) (spillOps, codeInstrs float64) {
	var cycles int64
	for _, r := range rows {
		for _, m := range r.ByK {
			spillOps += float64(m.GRASpillOps + m.RAPSpillOps + m.IRCSpillOps)
			codeInstrs += float64(m.GRASize + m.RAPSize + m.IRCSize)
			cycles += m.GRA.Cycles + m.RAP.Cycles + m.IRC.Cycles
		}
	}
	avg, _ := strconv.ParseFloat(fmt.Sprintf("%.1f", bench.OverallAverage(bench.Summarize(rows, bench.Ks))), 64)
	extra["exec_mcycles"] = float64(cycles) / 1e6
	extra["rap_vs_gra_pct"] = avg
	return spillOps, codeInstrs
}

// runTable1 runs whole Table 1 passes through bench.MeasureTimed with two
// workers until the window has passed. Each (program, k) unit is one
// op; its latency is the unit's wall clock as the harness records it.
// Each pass is one slice of the window.
func runTable1(c runConfig) (*record, error) {
	_, setups, err := timeSetups(func() (struct{}, error) { return struct{}{}, table1Setup() }, nil)
	if err != nil {
		return nil, err
	}
	var lat []float64
	var good []bench.Row
	ops, failed := 0, 0
	before := sampleProc()
	smp := startSampler(func() int { return ops }, 0)
	for ops < max(minOps, minSlices*table1Units) || time.Since(before.wall) < c.window {
		m := obs.NewMetrics()
		// A tracer with no sink and no registry is disabled: the
		// compilations run untraced, and only the harness's per-unit wall
		// clocks reach m.
		rows, err := bench.MeasureTimed(bench.Programs(), bench.Ks, core.CompareConfig{Parallel: 2, Trace: obs.New()}, m)
		ops += table1Units
		smp.cut()
		if err == nil {
			err = table1Check(rows)
		}
		if err != nil {
			c.logf("table1 pass: %v", err)
			failed += table1Units
			continue
		}
		good = rows
		for _, ns := range m.Snapshot().TimingsNS {
			lat = append(lat, float64(ns)/1e6)
		}
	}
	slices := smp.stop(0)
	d := before.to(sampleProc())
	rec := newRecord(ops, failed)
	spill, instrs := table1Quality(good, rec.Extra)
	return rec, endToEnd(setups, lat, ops, slices, d, spill, instrs, rec)
}

// unitCode is one allocated program the split pipeline produced, kept
// for the equivalence check against core.Compile.
type unitCode struct {
	src, alloc string
	k          int
	code       string
}

// splitTable1 replays one Table 1 pass sequentially through the split
// pipeline: per program the unallocated reference, then per k the GRA,
// RAP and IRC compilations, runs and differential checks that
// core.CompareAtK performs. Op ids continue from opBase.
func splitTable1(r *recorder, opBase int) ([]bench.Row, []unitCode, error) {
	var rows []bench.Row
	var codes []unitCode
	for pi, prog := range bench.Programs() {
		var ref *interp.Result
		byFunc := map[string]map[int]core.Measurement{}
		for ki, k := range bench.Ks {
			end := r.beginOp(opBase + pi*len(bench.Ks) + ki)
			if ki == 0 {
				p, err := r.compile(prog.Source, string(core.AllocNone), 0)
				if err != nil {
					return nil, nil, fmt.Errorf("%s: %w", prog.Name, err)
				}
				if ref, err = r.run(p); err != nil {
					return nil, nil, fmt.Errorf("%s: unallocated run: %w", prog.Name, err)
				}
			}
			res := map[string]*interp.Result{}
			progs := map[string]*ir.Program{}
			for _, alloc := range allocCycle {
				p, err := r.compile(prog.Source, alloc, k)
				if err != nil {
					return nil, nil, fmt.Errorf("%s %s k=%d: %w", prog.Name, alloc, k, err)
				}
				got, err := r.run(p)
				if err != nil {
					return nil, nil, fmt.Errorf("%s %s k=%d run: %w", prog.Name, alloc, k, err)
				}
				if err := r.diff(ref, got); err != nil {
					return nil, nil, fmt.Errorf("%s %s k=%d changed behaviour: %w", prog.Name, alloc, k, err)
				}
				res[alloc], progs[alloc] = got, p
				codes = append(codes, unitCode{src: prog.Source, alloc: alloc, k: k, code: p.String()})
			}
			end()
			for _, fn := range prog.Funcs {
				g, ra, c := res["gra"].PerFunc[fn], res["rap"].PerFunc[fn], res["irc"].PerFunc[fn]
				if g == nil || ra == nil || c == nil {
					continue
				}
				if byFunc[fn] == nil {
					byFunc[fn] = map[int]core.Measurement{}
				}
				byFunc[fn][k] = core.Measurement{
					Func: fn, K: k, GRA: *g, RAP: *ra, IRC: *c,
					GRASpillOps: staticSpillOps(progs["gra"].Func(fn)),
					RAPSpillOps: staticSpillOps(progs["rap"].Func(fn)),
					IRCSpillOps: staticSpillOps(progs["irc"].Func(fn)),
					GRASize:     staticSize(progs["gra"].Func(fn)),
					RAPSize:     staticSize(progs["rap"].Func(fn)),
					IRCSize:     staticSize(progs["irc"].Func(fn)),
				}
			}
		}
		for _, fn := range prog.Funcs {
			if byFunc[fn] != nil {
				rows = append(rows, bench.Row{Program: prog.Name, Func: fn, ByK: byFunc[fn]})
			}
		}
	}
	return rows, codes, nil
}

// traceTable1 alternates an untraced sequential Table 1 pass
// (bench.Table1) with its replay through the split pipeline, until the
// window has passed. Both passes must reproduce the expected Table 1, and
// every allocated program of the replay must equal core.Compile's.
func traceTable1(c runConfig) (*record, error) {
	if err := table1Setup(); err != nil {
		return nil, err
	}
	r := newRecorder()
	var realWall, splitWall time.Duration
	ops, failed := 0, 0
	before := sampleProc()
	for ops == 0 || time.Since(before.wall) < c.window {
		start := time.Now()
		rows, err := bench.Table1(bench.Ks, core.CompareConfig{Parallel: 1})
		realWall += time.Since(start)
		if err == nil {
			err = table1Check(rows)
		}
		start = time.Now()
		srows, codes, serr := splitTable1(r, ops)
		splitWall += time.Since(start)
		if serr == nil {
			serr = table1Check(srows)
		}
		if serr == nil {
			serr = sameAsCompile(codes)
		}
		ops += table1Units
		if err != nil || serr != nil {
			c.logf("table1 traced pass: untraced: %v; split: %v", err, serr)
			failed += table1Units
		}
	}
	d := before.to(sampleProc())
	rec := newRecord(ops, failed)
	rec.Metrics = layerMetrics(r, ops, d, splitWall, realWall, serveLayer{})
	rec.spans = r
	return rec, nil
}

// sameAsCompile checks the split pipeline's programs against
// core.Compile's for the same source, allocator and k.
func sameAsCompile(codes []unitCode) error {
	for _, u := range codes {
		p, err := core.Compile(u.src, core.Config{Allocator: core.Allocator(u.alloc), K: u.k})
		if err != nil {
			return err
		}
		if p.String() != u.code {
			return fmt.Errorf("%s k=%d: split pipeline code differs from core.Compile", u.alloc, u.k)
		}
	}
	return nil
}
