package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain prints, for each workload and end-to-end metric, the
// median and quartiles of a base and a change set of untraced records
// and a verdict under the metric's bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [--benchmark BENCHMARK.json] BASE_DIR CHANGE_DIR")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	base, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase q1\tbase med\tbase q3\tchange q1\tchange med\tchange q3\tchange %\tbound %\tverdict\t")
	for _, w := range sortedKeys(base) {
		if change[w] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, cv := seedValues(base[w], m.Name), seedValues(change[w], m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(values(bv))
			cq1, cmed, cq3 := quartiles(values(cv))
			pct := 0.0
			if bmed != 0 {
				pct = 100 * (cmed - bmed) / bmed
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f\t%.0f\t%s\t\n",
				w, m.Name, m.Unit, bq1, bmed, bq3, cq1, cmed, cq3, pct, 100*m.Bound, verdict(bv, cv, m.Better == "lower", m.Bound))
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	return 0
}

// loadRecords reads every untraced record in dir, grouped by workload.
func loadRecords(dir string) (map[string][]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*record{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Schema != recordSchema || rec.Provenance.Trace {
			continue
		}
		w := rec.Provenance.Workload
		out[w] = append(out[w], &rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced %s records", dir, recordSchema)
	}
	return out, nil
}

// seedValues maps each record's seed to its value of metric name.
func seedValues(recs []*record, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out[r.Provenance.Seed] = m.Value
		}
	}
	return out
}

func values(m map[int64]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// verdict judges a change against its base under a metric's bound:
//   - worse: the change's median is worse than the base's by more than
//     the bound;
//   - better: the medians differ, in the change's favour, by more than
//     the base's own quartile spread, and the change wins at least nine
//     tenths of the runs paired by seed;
//   - when the base's quartile spread exceeds the bound, only a change
//     whose every run beats (or trails) every base run is better (or
//     worse);
//   - otherwise unresolved.
func verdict(base, change map[int64]float64, lowerIsBetter bool, bound float64) string {
	better := func(c, b float64) bool {
		if lowerIsBetter {
			return c < b
		}
		return c > b
	}
	bq1, bmed, bq3 := quartiles(values(base))
	_, cmed, _ := quartiles(values(change))
	if bmed == 0 {
		return "unresolved"
	}
	gain := (bmed - cmed) / bmed // share by which the change improves
	if !lowerIsBetter {
		gain = -gain
	}
	spread := (bq3 - bq1) / bmed
	if spread > bound {
		allBetter, allWorse := true, true
		for _, c := range change {
			for _, b := range base {
				allBetter = allBetter && better(c, b)
				allWorse = allWorse && better(b, c)
			}
		}
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	if -gain > bound {
		return "worse"
	}
	wins, pairs := 0, 0
	for seed, c := range change {
		if b, ok := base[seed]; ok {
			pairs++
			if better(c, b) {
				wins++
			}
		}
	}
	if gain > spread && pairs > 0 && 10*wins >= 9*pairs {
		return "better"
	}
	return "unresolved"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
