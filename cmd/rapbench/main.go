// Command rapbench regenerates the paper's evaluation: Table 1 (the
// percentage decrease in executed cycles of RAP-allocated versus
// GRA-allocated code over the benchmark suite, for register set sizes 3,
// 5, 7 and 9) and the ablation studies DESIGN.md calls out.
//
// Usage:
//
//	rapbench                     # full Table 1
//	rapbench -only sieve,queens  # subset
//	rapbench -ablate             # per-phase contribution summary
//	rapbench -merge-stmts        # region-granularity ablation
//	rapbench -csv t1.csv         # also write the rows as CSV
//	rapbench -parallel 4         # bound the (program,k) worker pool
//	rapbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// This command reproduces the paper's tables. Performance is measured by
// perfbench (perfbench/README.md), whose records
// `bash perfbench/run.sh compare` diffs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/regalloc/rap"
)

func main() {
	var (
		only     = flag.String("only", "", "comma-separated benchmark programs (default: all)")
		ksFlag   = flag.String("ks", "3,5,7,9", "register set sizes")
		merge    = flag.Bool("merge-stmts", false, "merge per-statement regions (ablation)")
		ablate   = flag.Bool("ablate", false, "compare RAP phase ablations")
		verify   = flag.Bool("verify", false, "statically verify every allocation against the unallocated reference while measuring")
		csvOut   = flag.String("csv", "", "also write the rows as CSV to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file")
		suite    = flag.String("suite", "paper", "benchmark set: paper (Table 1 rows) or extended (adds bubble/quick/mm/whetstone/ackermann)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for the (program,k) comparison units; 1 = sequential (output is identical either way)")
	)
	flag.Parse()
	// Ctrl-C (or a CI job cancellation) stops pending and in-flight
	// (program, k) units at their next phase boundary.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ks, err := core.ParseKs(*ksFlag)
	if err != nil {
		fatal(err)
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}()

	if *ablate {
		runAblation(ctx, ks, names, *parallel, *verify)
		return
	}

	progs := bench.Programs()
	if *suite == "extended" {
		progs = append(progs, bench.ExtraPrograms()...)
	} else if *suite != "paper" {
		fatal(fmt.Errorf("unknown -suite %q", *suite))
	}
	cfg := core.CompareConfig{Lower: lower.Options{MergeStatements: *merge}, Parallel: *parallel, Verify: *verify}
	// The phase-latency table after Table 1 needs the duration
	// histograms of a metrics registry. WithMetrics composes with the
	// RAP_DEBUG text tracer.
	metrics := obs.NewMetrics()
	cfg.Trace = debugTracer().WithMetrics(metrics)
	rows, err := bench.MeasureTimedContext(ctx, progs, ks, cfg, metrics, names...)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench.Format(rows, ks))
	printPhaseLatencies(metrics.Snapshot())
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := bench.WriteCSV(f, rows, ks); err != nil {
			fatal(err)
		}
	}
}

// runAblation reports the suite-average percentage decrease under each
// ablation of the paper's configuration, quantifying what spill motion
// (§3.2), the Fig. 6 peephole (§3.3) and the per-statement regions
// contribute, and how much of RAP's edge the peephole alone gives GRA.
func runAblation(ctx context.Context, ks []int, names []string, parallel int, verify bool) {
	configs := []struct {
		label string
		cfg   core.CompareConfig
	}{
		{"full RAP (paper)", core.CompareConfig{}},
		{"no spill motion", core.CompareConfig{RAP: rap.Options{DisableSpillMotion: true}}},
		{"no peephole", core.CompareConfig{RAP: rap.Options{DisablePeephole: true}}},
		{"phase 1 only", core.CompareConfig{RAP: rap.Options{DisableSpillMotion: true, DisablePeephole: true}}},
		{"merged regions", core.CompareConfig{Lower: lower.Options{MergeStatements: true}}},
		{"GRA + peephole baseline", core.CompareConfig{GRAPeephole: true}},
	}
	fmt.Printf("%-26s", "configuration")
	for _, k := range ks {
		fmt.Printf(" %8s", fmt.Sprintf("k=%d", k))
	}
	fmt.Printf(" %8s\n", "overall")
	for _, c := range configs {
		c.cfg.Parallel = parallel
		c.cfg.Verify = verify
		c.cfg.Trace = debugTracer()
		rows, err := bench.Table1Context(ctx, ks, c.cfg, names...)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", c.label, err))
		}
		sums := bench.Summarize(rows, ks)
		fmt.Printf("%-26s", c.label)
		for _, s := range sums {
			fmt.Printf(" %8.1f", s.AvgTotal)
		}
		fmt.Printf(" %8.1f\n", bench.OverallAverage(sums))
	}
}

// printPhaseLatencies renders the wall-clock distribution of every
// timed phase — compiler spans and allocator inner phases — after
// Table 1. Quantiles come from the rap/metrics/v2 duration histograms.
func printPhaseLatencies(snap obs.Snapshot) {
	if len(snap.TimeHistsNS) == 0 {
		return
	}
	phases := make([]string, 0, len(snap.TimeHistsNS))
	for phase := range snap.TimeHistsNS {
		phases = append(phases, phase)
	}
	sort.Strings(phases)
	fmt.Printf("\nphase latencies (wall clock)\n")
	fmt.Printf("%-28s %8s %12s %12s %12s\n", "phase", "count", "p50", "p90", "p99")
	for _, phase := range phases {
		h := snap.TimeHistsNS[phase]
		fmt.Printf("%-28s %8d %12s %12s %12s\n",
			phase, h.Count, fmtNS(h.P50()), fmtNS(h.P90()), fmtNS(h.P99()))
	}
}

// fmtNS renders a nanosecond quantile compactly for the table.
func fmtNS(ns int64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}

// debugTracer honors the RAP_DEBUG env shim: text events on stderr. The
// env var is interpreted here, in the command — the library packages
// depend only on the tracer they are handed.
func debugTracer() *obs.Tracer {
	if os.Getenv("RAP_DEBUG") == "" {
		return nil
	}
	return obs.New(obs.NewTextSink(os.Stderr))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapbench:", err)
	os.Exit(1)
}
