// Command perfbench is the repository's benchmark. It runs one named
// workload in-process against the compiler, the register allocators, the
// interpreter and the serve runner, checks every output, and prints the
// workload's metrics as one JSON object on the last line of its output.
//
//	perfbench --workload table1 --seed 1 --seconds 20 --trace 0
//	perfbench compare BASE_DIR CHANGE_DIR
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the workload with every layer call timed and prints the
// per-layer metrics. Each run also writes its full record (provenance,
// metrics, extra counters) to the --out directory; compare reads two sets
// of those records. README.md defines every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// minOps is the fewest ops an untraced run completes, so its p90 has at
// least 10 samples beyond it.
const minOps = 100

// minTraceOps is the fewest ops a traced serve run replays.
const minTraceOps = 100

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	window  time.Duration
	workDir string
	log     io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

// workload is one named workload's untraced and traced runs.
type workload struct {
	run, trace func(runConfig) (*record, error)
}

var workloads = map[string]workload{
	"table1":        {runTable1, traceTable1},
	"serve-compile": {runServeCompile, traceServeCompile},
	"serve-repeat":  {runServeRepeat, traceServeRepeat},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is a run's full result, written to the --out directory.
type record struct {
	Schema     string             `json:"schema"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]metric  `json:"metrics"`
	Extra      map[string]float64 `json:"extra"`
	// Slices are an untraced run's window slices: wall and CPU seconds,
	// ops completed and the highest RSS sampled in MB.
	Slices [][4]float64 `json:"slices,omitempty"`
	// spans holds a traced run's spans, written beside the record.
	spans *recorder
}

// recordSchema names the record format.
const recordSchema = "rap/perfbench/v1"

func newRecord(attempted, failed int) *record {
	return &record{Schema: recordSchema, Attempted: attempted, Failed: failed, Extra: map[string]float64{}}
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1, serve-compile or serve-repeat")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from (table1's input is fixed)")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced replay with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory the run's full record is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload table1|serve-compile|serve-repeat, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	c := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		workDir: filepath.Join(".bench_build", "tmp"),
		log:     stderr,
	}
	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	rec, err := run(c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rec.Correct = rec.Failed == 0
	rec.Extra["failed_frac"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.Provenance = newProvenance(*name, *seed, *seconds, *trace == 1, rec.Attempted)
	path, err := writeRecord(*out, rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rec.spans != nil {
		if err := rec.spans.writeSpans(strings.TrimSuffix(path, ".json") + ".spans.jsonl"); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	prov, _ := json.Marshal(rec.Provenance)
	extra, _ := json.Marshal(rec.Extra)
	fmt.Fprintf(stdout, "provenance %s\nextra %s\nrecord %s\n", prov, extra, path)
	line, err := json.Marshal(summary{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// writeRecord writes rec into dir under a name unique to the run.
func writeRecord(dir string, rec *record) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := rec.Provenance
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", p.Workload, p.Seed, b2i(p.Trace), time.Now().UnixNano())
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Set-up repetitions: a run sets up at least minSetupReps times and
// until setupBudget has been spent, at most maxSetupReps times, so a
// cheap set-up's median rests on many samples.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = 2 * time.Second
)

// timeSetups sets a workload up repeatedly and returns the last state
// with every set-up's duration; release frees each earlier state.
func timeSetups[T any](setup func() (T, error), release func(T)) (T, []time.Duration, error) {
	var durs []time.Duration
	var last T
	var spent time.Duration
	for i := 0; i < maxSetupReps && (i < minSetupReps || spent < setupBudget); i++ {
		start := time.Now()
		s, err := setup()
		if err != nil {
			if i > 0 && release != nil {
				release(last)
			}
			return s, nil, err
		}
		durs = append(durs, time.Since(start))
		spent += durs[i]
		if i > 0 && release != nil {
			release(last)
		}
		last = s
	}
	return last, durs, nil
}

// End-to-end metric units, in BENCHMARK.json's order.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"spill_ops", "count"},
	{"code_instrs", "count"},
}

// minSlices is the fewest slices an untraced run's window is cut into.
const minSlices = 5

// endToEnd sets the end-to-end metrics of an untraced run from the
// window's ops, their latencies in ms, its slices, the work the process
// did over all of it, and the static quality guards. Rates, CPU per op and
// RSS are medians over slices; allocation is the window's total.
func endToEnd(setups []time.Duration, latMS []float64, ops int, slices []slice, d delta, spillOps, codeInstrs float64, rec *record) error {
	p50, err := percentile(latMS, 50)
	if err != nil {
		return err
	}
	p90, err := percentile(latMS, 90)
	if err != nil {
		return err
	}
	if spillOps == 0 || codeInstrs == 0 {
		return errors.New("no correct output to measure the quality guards on")
	}
	if len(slices) < minSlices {
		return fmt.Errorf("window cut into %d slices, need %d", len(slices), minSlices)
	}
	var setupS, rate, cpu, rss []float64
	for _, s := range setups {
		setupS = append(setupS, s.Seconds())
	}
	for _, s := range slices {
		rec.Slices = append(rec.Slices, [4]float64{s.wall.Seconds(), s.cpu.Seconds(), float64(s.ops), s.peakRSSMB})
		rate = append(rate, float64(s.ops)/s.wall.Seconds())
		if s.ops > 0 {
			cpu = append(cpu, s.cpu.Seconds()*1e3/float64(s.ops))
		}
		rss = append(rss, s.peakRSSMB)
	}
	rec.Extra["max_rss_mb"] = peakRSSMB()
	vals := map[string]float64{
		"setup_s":         median(setupS),
		"ops_per_s":       median(rate),
		"op_p50_ms":       p50,
		"op_p90_ms":       p90,
		"cpu_ms_per_op":   median(cpu),
		"alloc_mb_per_op": d.allocMB / float64(ops),
		"peak_rss_mb":     median(rss),
		"spill_ops":       spillOps,
		"code_instrs":     codeInstrs,
	}
	rec.Metrics = withUnits(vals, endToEndUnits)
	return nil
}

func withUnits(vals map[string]float64, units []struct{ name, unit string }) map[string]metric {
	out := map[string]metric{}
	for _, u := range units {
		out[u.name] = metric{Value: vals[u.name], Unit: u.unit}
	}
	return out
}

// Per-layer metric units, in BENCHMARK.json's order. Additive quantities
// (times, counts, megabytes) are per traced op; ratios, percentiles,
// rates, shares and store.log_mb are as named.
var perLayerUnits = []struct{ name, unit string }{
	{"parser.ms", "ms"},
	{"parser.kb_per_s", "kB/s"},
	{"sem.ms", "ms"},
	{"lower.ms", "ms"},
	{"lower.instrs", "count"},
	{"alloc.gra.ms", "ms"},
	{"alloc.rap.ms", "ms"},
	{"alloc.irc.ms", "ms"},
	{"alloc.rap.p90_ms", "ms"},
	{"alloc.gra.spill_ops", "count"},
	{"alloc.rap.spill_ops", "count"},
	{"alloc.irc.spill_ops", "count"},
	{"regalloc.check.ms", "ms"},
	{"verify.ms", "ms"},
	{"verify.programs", "count"},
	{"interp.ms", "ms"},
	{"interp.runs", "count"},
	{"interp.mcycles", "Mcycles"},
	{"interp.mcycles_per_s", "Mcycles/s"},
	{"interp.alloc_mb", "MB"},
	{"interp.share_pct", "%"},
	{"diff.ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.disk_hits", "count"},
	{"serve.queue.rejects", "count"},
	{"store.writes", "count"},
	{"store.hits", "count"},
	{"store.log_mb", "MB"},
	{"rap.memo.hit_ratio", "ratio"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.ops", "count"},
}

// serveLayer is what a traced serve run measures of the runner, its
// cache, the store and the region memo.
type serveLayer struct {
	hitMS, missMS []float64
	counters      map[string]int64
	storeMB       float64
}

// layerMetrics assembles the per-layer metrics of a traced run of ops
// ops. splitWall is the time the split pipeline took on the ops it
// replayed and realWall the time the untraced entry point took on the
// same ops.
func layerMetrics(r *recorder, ops int, d delta, splitWall, realWall time.Duration, sl serveLayer) map[string]metric {
	per := func(v float64) float64 { return v / float64(ops) }
	ms := func(name string) float64 { return per(r.busy(name).Seconds() * 1e3) }
	p50 := func(xs []float64) float64 {
		v, _ := percentile(xs, 50) // 0 when too few samples
		return v
	}
	rapP90, _ := percentile(r.durationsMS(allocSpan("rap")), 90)
	interpS := r.busy(spanInterp).Seconds()
	vals := map[string]float64{
		"lower.instrs":          per(float64(r.instrs)),
		"alloc.rap.p90_ms":      rapP90,
		"alloc.gra.spill_ops":   per(float64(r.spillOps["gra"])),
		"alloc.rap.spill_ops":   per(float64(r.spillOps["rap"])),
		"alloc.irc.spill_ops":   per(float64(r.spillOps["irc"])),
		"verify.programs":       per(float64(r.verified)),
		"interp.runs":           per(float64(r.runs)),
		"interp.mcycles":        per(float64(r.cycles) / 1e6),
		"interp.alloc_mb":       per(r.interpMB),
		"serve.hit_p50_ms":      p50(sl.hitMS),
		"serve.miss_p50_ms":     p50(sl.missMS),
		"serve.cache.hit_ratio": ratio(sl.counters["serve.cache.hits"], sl.counters["serve.cache.misses"]),
		"serve.cache.disk_hits": per(float64(sl.counters["serve.cache.disk_hits"])),
		"serve.queue.rejects":   per(float64(sl.counters["serve.queue.rejects"])),
		"store.writes":          per(float64(sl.counters["store.write"])),
		"store.hits":            per(float64(sl.counters["store.hit"])),
		"store.log_mb":          sl.storeMB,
		"rap.memo.hit_ratio":    ratio(sl.counters["rap.memo.hits"], sl.counters["rap.memo.misses"]),
		"gc.cycles":             per(float64(d.gc)),
		"gc.pause_ms":           per(d.pauseMS),
		"trace.ops":             float64(ops),
	}
	for _, name := range []string{spanParse, spanSem, spanLower, allocSpan("gra"), allocSpan("rap"), allocSpan("irc"), spanCheck, spanVerify, spanInterp, spanDiff} {
		vals[name+".ms"] = ms(name)
	}
	if s := r.busy(spanParse).Seconds(); s > 0 {
		vals["parser.kb_per_s"] = float64(r.srcBytes) / 1e3 / s
	}
	if interpS > 0 {
		vals["interp.mcycles_per_s"] = float64(r.cycles) / 1e6 / interpS
	}
	if splitWall > 0 {
		vals["interp.share_pct"] = 100 * interpS / splitWall.Seconds()
	}
	if realWall > 0 {
		vals["trace.overhead_pct"] = 100 * (splitWall.Seconds() - realWall.Seconds()) / realWall.Seconds()
	}
	return withUnits(vals, perLayerUnits)
}
