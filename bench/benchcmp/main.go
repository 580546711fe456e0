// Command benchcmp compares two sets of hmcbench runs, for example of a
// parent commit and a change, made alternately on one machine:
//
//	go -C bench run ./benchcmp -old '../runs/old-*.json' -new '../runs/new-*.json'
//
// Each file is one `hmcbench -json` record; the i-th old and i-th new
// files (in name order) form a pair. For every workload and metric it
// prints each side's median and quartiles over the runs, the change in
// the median, how many pairs the new side won, and a verdict:
//
//   - better: the new side wins at least 9 in 10 pairs (ties count for
//     neither) and the medians differ by more than the old side's
//     interquartile range;
//   - unresolved: an end-to-end metric whose spread (interquartile range
//     over median) on either side is wider than its bound, unless every
//     new run reads better than every old run;
//   - worse: an end-to-end metric whose new median is worse than the old
//     by more than its bound, or a per-layer metric that loses the pairs
//     as "better" would win them;
//   - same: none of the above.
//
// Direction and bound come from BENCHMARK.json. The exit status is 1
// when any end-to-end metric is worse or unresolved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"hmcsim/bench/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldGlob := fs.String("old", "", "glob of the old side's hmcbench -json files")
	newGlob := fs.String("new", "", "glob of the new side's hmcbench -json files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldGlob == "" || *newGlob == "" {
		fmt.Fprintln(stderr, "benchcmp: need -old and -new")
		return 2
	}
	root, err := report.FindRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 1
	}
	spec, err := report.LoadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 1
	}
	oldRuns, err := load(*oldGlob)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 1
	}
	newRuns, err := load(*newGlob)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 1
	}
	if m0, m1 := oldRuns[0].Meta, newRuns[0].Meta; m0.NumCPU != m1.NumCPU || m0.GOMAXPROCS != m1.GOMAXPROCS || m0.GoVersion != m1.GoVersion {
		fmt.Fprintf(stderr, "benchcmp: warning: unlike machines (%d CPUs, GOMAXPROCS %d, %s vs %d, %d, %s)\n",
			m0.NumCPU, m0.GOMAXPROCS, m0.GoVersion, m1.NumCPU, m1.GOMAXPROCS, m1.GoVersion)
	}
	rows := compare(spec, values(oldRuns), values(newRuns))
	fmt.Fprintf(stdout, "%-12s %-26s %12s %23s %12s %23s %8s %6s  %s\n",
		"workload", "metric", "old", "[q1 q3]", "new", "[q1 q3]", "delta", "wins", "verdict")
	bad := false
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-12s %-26s %12.5g [%10.5g %10.5g] %12.5g [%10.5g %10.5g] %+7.1f%% %3d/%-2d  %s\n",
			r.workload, r.metric, r.old.med, r.old.q1, r.old.q3, r.new.med, r.new.q1, r.new.q3,
			r.deltaPct, r.wins, r.pairs, r.verdict)
		bad = bad || r.endToEnd && (r.verdict == "worse" || r.verdict == "unresolved")
	}
	if bad {
		return 1
	}
	return 0
}

// load reads the runs matching a glob, in name order.
func load(glob string) ([]report.Run, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no files match %q", glob)
	}
	sort.Strings(paths)
	runs := make([]report.Run, len(paths))
	for i, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(blob, &runs[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return runs, nil
}

// key names one metric of one workload.
type key struct{ workload, metric string }

// values collects each metric's value per run, in run order.
func values(runs []report.Run) map[key][]float64 {
	out := map[key][]float64{}
	for _, r := range runs {
		for _, w := range r.Workloads {
			for _, m := range w.Metrics {
				k := key{w.Name, m.Name}
				out[k] = append(out[k], m.Value)
			}
		}
	}
	return out
}

type side struct{ med, q1, q3 float64 }

func summarize(xs []float64) side {
	q1, q3 := report.Quartiles(xs)
	return side{report.Median(xs), q1, q3}
}

// spread is the interquartile range as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		if s.q3 == s.q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs((s.q3 - s.q1) / s.med)
}

type row struct {
	workload, metric string
	endToEnd         bool
	old, new         side
	deltaPct         float64
	wins, pairs      int
	verdict          string
}

// compare applies the verdict rules to every metric present on both
// sides and declared in the spec, ordered by workload then metric.
func compare(spec *report.Spec, oldV, newV map[key][]float64) []row {
	var keys []key
	for k := range oldV {
		if _, ok := newV[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var rows []row
	for _, k := range keys {
		ms, ok := spec.Metric(k.metric)
		if !ok {
			continue
		}
		rows = append(rows, verdict(k, ms, oldV[k], newV[k]))
	}
	return rows
}

func verdict(k key, ms report.MetricSpec, oldXs, newXs []float64) row {
	r := row{workload: k.workload, metric: k.metric, endToEnd: ms.Bound != nil,
		old: summarize(oldXs), new: summarize(newXs)}
	if r.old.med != 0 {
		r.deltaPct = (r.new.med - r.old.med) / math.Abs(r.old.med) * 100
	}
	// better reports whether a reads better than b.
	better := func(a, b float64) bool {
		if ms.Lower() {
			return a < b
		}
		return a > b
	}
	r.pairs = min(len(oldXs), len(newXs))
	losses := 0
	for i := 0; i < r.pairs; i++ {
		switch {
		case better(newXs[i], oldXs[i]):
			r.wins++
		case better(oldXs[i], newXs[i]):
			losses++
		}
	}
	separated := math.Abs(r.new.med-r.old.med) > r.old.q3-r.old.q1
	allBetter := true
	for _, n := range newXs {
		for _, o := range oldXs {
			allBetter = allBetter && better(n, o)
		}
	}
	bound := 0.0
	if ms.Bound != nil {
		bound = *ms.Bound
	}
	worseBy := (r.new.med - r.old.med) / math.Abs(r.old.med)
	if !ms.Lower() {
		worseBy = -worseBy
	}
	switch {
	case r.pairs > 0 && 10*r.wins >= 9*r.pairs && separated && better(r.new.med, r.old.med):
		r.verdict = "better"
	case r.endToEnd && (r.old.spread() > bound || r.new.spread() > bound):
		r.verdict = "unresolved"
		if allBetter {
			r.verdict = "better"
		}
	case r.endToEnd && worseBy > bound:
		r.verdict = "worse"
	case !r.endToEnd && r.pairs > 0 && 10*losses >= 9*r.pairs && separated:
		r.verdict = "worse"
	default:
		r.verdict = "same"
	}
	return r
}
