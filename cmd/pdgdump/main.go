// Command pdgdump prints program representations used by the pipeline:
// the Program Dependence Graph (text or Graphviz DOT), the control-flow
// graph, the lowered iloc code, and the syntactic region tree the RAP
// allocator works over.
//
// Usage:
//
//	pdgdump [flags] file.mc
//
// Examples:
//
//	pdgdump -what pdg -format dot prog.mc | dot -Tpng > pdg.png
//	pdgdump -what regions prog.mc
//	pdgdump -what ir -alloc rap -k 5 prog.mc   # allocated iloc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/pdg"
	"repro/internal/regalloc"
)

func main() {
	var (
		what       = flag.String("what", "pdg", "what to dump: pdg, cfg, ir, regions, ig")
		format     = flag.String("format", "text", "output format for -what pdg: text or dot")
		fn         = flag.String("func", "", "dump only this function (default: all)")
		merge      = flag.Bool("merge-stmts", false, "merge per-statement regions")
		allocFlag  = flag.String("alloc", "none", "allocate registers first ("+core.AllocatorFlagHelp()+")")
		k          = flag.Int("k", 5, "number of physical registers for -alloc")
		metricsOut = flag.String("metrics", "", "write front-end/PDG-build timings (schema rap/metrics/v2) as JSON to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pdgdump [flags] file.mc")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var metrics *obs.Metrics
	var tracer *obs.Tracer
	if *metricsOut != "" {
		metrics = obs.NewMetrics()
		tracer = obs.New().WithMetrics(metrics)
		defer func() {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := metrics.Snapshot().WriteJSON(f); err != nil {
				fatal(err)
			}
		}()
	}
	cfg2 := core.Config{Lower: lower.Options{MergeStatements: *merge}, K: *k, Trace: tracer}
	if cfg2.Allocator, err = core.ParseAllocator(*allocFlag); err != nil {
		fatal(err)
	}
	if err := cfg2.Validate(); err != nil {
		fatal(err)
	}
	p, err := core.Compile(string(src), cfg2)
	if err != nil {
		fatal(err)
	}
	for _, f := range p.Funcs {
		if *fn != "" && f.Name != *fn {
			continue
		}
		switch *what {
		case "ir":
			fmt.Print(f.String())
		case "cfg":
			g, err := cfg.Build(f)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("func %s: %d blocks\n", f.Name, len(g.Blocks))
			for _, b := range g.Blocks {
				fmt.Printf("  B%d [%d,%d) succs=%v preds=%v\n", b.ID, b.Start, b.End, b.Succs, b.Preds)
			}
		case "pdg":
			span := tracer.StartSpan("pdg.build")
			g, err := pdg.Build(f)
			span.End()
			if err != nil {
				fatal(err)
			}
			if *format == "dot" {
				fmt.Print(g.DOT())
			} else {
				fmt.Printf("func %s:\n%s", f.Name, g.String())
			}
		case "ig":
			// The classic whole-function interference graph (what GRA
			// colours).
			g, err := cfg.Build(f)
			if err != nil {
				fatal(err)
			}
			lv := dataflow.ComputeLiveness(g)
			graph := ig.New()
			regalloc.BuildInterference(graph, f, g, lv)
			if *format == "dot" {
				fmt.Print(graph.DOT(f.Name))
			} else {
				fmt.Printf("func %s:\n%s", f.Name, graph.String())
			}
		case "regions":
			fmt.Printf("func %s:\n", f.Name)
			spans := f.RegionSpans()
			var walk func(r *ir.Region, depth int)
			walk = func(r *ir.Region, depth int) {
				s := spans[r.ID]
				fmt.Printf("%s%s region %d [%d,%d)\n", strings.Repeat("  ", depth), r.Kind, r.ID, s.Start, s.End)
				for _, c := range r.Children {
					walk(c, depth+1)
				}
			}
			walk(f.Regions, 1)
		default:
			fatal(fmt.Errorf("unknown -what %q", *what))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdgdump:", err)
	os.Exit(1)
}
