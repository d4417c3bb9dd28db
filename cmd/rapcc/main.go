// Command rapcc compiles a MiniC source file through the reproduction
// pipeline, optionally allocates registers (RAP, GRA, IRC or naive), and
// runs the result on the counting interpreter. Single-shot execution routes
// through the same hardened job core (internal/serve.ExecuteJob) the
// rapserved daemon uses, so a served result is identical to rapcc's for
// the same inputs.
//
// Usage:
//
//	rapcc [flags] file.mc
//
// Examples:
//
//	rapcc -alloc rap -k 5 -stats prog.mc     # allocate with RAP, run, report
//	rapcc -alloc gra -k 5 -dump prog.mc      # print the allocated iloc
//	rapcc -alloc rap -k 5 -verify prog.mc    # statically verify the allocation too
//	rapcc -compare -ks 3,5,7,9 prog.mc       # per-routine RAP vs GRA table
//	rapcc -alloc rap -k 5 -trace-out t.jsonl -metrics m.json prog.mc
//	rapcc -alloc rap -k 3 -run=false -explain r7 prog.mc
//
// Setting RAP_DEBUG prints text events to stderr — the env var is
// interpreted here, in the command, never inside the library packages.
//
// When the program runs, its main return value (masked to 7 bits) becomes
// rapcc's exit status.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		alloc      = flag.String("alloc", "none", core.AllocatorFlagHelp())
		k          = flag.Int("k", 5, "number of physical registers")
		dump       = flag.Bool("dump", false, "print the (possibly allocated) iloc code")
		run        = flag.Bool("run", true, "execute the program")
		stats      = flag.Bool("stats", false, "print per-routine cycle/load/store/copy counts")
		compare    = flag.Bool("compare", false, "compare RAP against GRA at the -ks register set sizes")
		verifyFlag = flag.Bool("verify", false, "statically verify every allocation against the unallocated reference (single-shot and -compare)")
		ksFlag     = flag.String("ks", "3,5,7,9", "comma-separated register set sizes for -compare")
		merge      = flag.Bool("merge-stmts", false, "merge per-statement regions (region granularity ablation)")
		noMotion   = flag.Bool("rap-no-motion", false, "disable RAP's loop spill motion (ablation)")
		noPeep     = flag.Bool("rap-no-peephole", false, "disable RAP's load/store elimination (ablation)")
		coalesce   = flag.Bool("coalesce", false, "enable conservative coalescing (extension)")
		remat      = flag.Bool("remat", false, "enable constant rematerialization (extension)")
		trace      = flag.Bool("trace", false, "print every executed instruction to stderr (func, pc, cycle, instruction)")
		traceOut   = flag.String("trace-out", "", "write allocation/pipeline events as JSON lines to this file")
		metricsOut = flag.String("metrics", "", "write the pipeline metrics snapshot (schema rap/metrics/v2) as JSON to this file")
		explain    = flag.String("explain", "", "print the named virtual register's allocation history (e.g. r7) and exit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rapcc [flags] file.mc")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	// Observability: any of -trace-out, -metrics, -explain and the
	// RAP_DEBUG env var turns the tracer on; with none of them the
	// pipeline runs with the free nil tracer. The env sniff lives here in
	// the command — the library depends only on the tracer it is handed.
	var sinks []obs.Sink
	if os.Getenv("RAP_DEBUG") != "" {
		sinks = append(sinks, obs.NewTextSink(os.Stderr))
	}
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer traceFile.Close()
		sinks = append(sinks, obs.NewJSONLSink(traceFile))
	}
	var collector *obs.Collector
	if *explain != "" {
		collector = &obs.Collector{}
		sinks = append(sinks, collector)
	}
	var metrics *obs.Metrics
	if *metricsOut != "" {
		metrics = obs.NewMetrics()
	}
	var tracer *obs.Tracer
	if len(sinks) > 0 || metrics != nil {
		tracer = obs.New(sinks...).WithMetrics(metrics)
	}
	writeMetrics := func() {
		if *metricsOut == "" {
			return
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := metrics.Snapshot().WriteJSON(f); err != nil {
			fatal(err)
		}
	}

	// Single-shot and -compare both route through the serve job core —
	// the exact execution path rapserved's workers use.
	job := serve.Job{
		Source:        string(src),
		Allocator:     *alloc,
		K:             *k,
		Verify:        *verifyFlag,
		MergeStmts:    *merge,
		Coalesce:      *coalesce,
		Rematerialize: *remat,
		RAPNoMotion:   *noMotion,
		RAPNoPeephole: *noPeep,
	}
	opts := serve.ExecOptions{Tracer: tracer}
	if *trace {
		opts.InstrTrace = os.Stderr
	}

	if *compare {
		ks, err := core.ParseKs(*ksFlag)
		if err != nil {
			fatal(err)
		}
		job.Mode = serve.ModeCompare
		job.Ks = ks
		out, err := serve.ExecuteJob(context.Background(), job, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-16s %3s %10s %10s %8s %8s %8s\n", "routine", "k", "GRA cyc", "RAP cyc", "tot%", "ld%", "st%")
		for _, m := range out.Measurements {
			fmt.Printf("%-16s %3d %10d %10d %8.1f %8.1f %8.1f\n",
				m.Func, m.K, m.GRA.Cycles, m.RAP.Cycles, m.PctTotal(), m.PctLoads(), m.PctStores())
		}
		writeMetrics()
		return
	}

	wantRun := *run && *explain == ""
	job.Run = &wantRun
	out, err := serve.ExecuteJob(context.Background(), job, opts)
	if err != nil {
		fatal(err)
	}
	if *explain != "" {
		fmt.Print(obs.Explain(collector.Events(), *explain))
		writeMetrics()
		return
	}
	if *dump {
		fmt.Print(out.Prog.String())
	}
	if out.Run == nil {
		writeMetrics()
		return
	}
	for _, line := range out.Run.Output {
		fmt.Println(line)
	}
	if *stats {
		printStats(out.Run)
	}
	writeMetrics()
	os.Exit(int(out.Run.Ret & 0x7f))
}

// printStats renders the run's per-routine summary, routines sorted by
// name, then the program total.
func printStats(res *interp.Result) {
	fmt.Printf("%-16s %10s %10s %10s %10s\n", "routine", "cycles", "loads", "stores", "copies")
	names := make([]string, 0, len(res.PerFunc))
	for name := range res.PerFunc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.PerFunc[name]
		fmt.Printf("%-16s %10d %10d %10d %10d\n", name, s.Cycles, s.Loads, s.Stores, s.Copies)
	}
	t := res.Total
	fmt.Printf("%-16s %10d %10d %10d %10d\n", "TOTAL", t.Cycles, t.Loads, t.Stores, t.Copies)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapcc:", err)
	os.Exit(1)
}
