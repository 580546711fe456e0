package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hmcsim/bench/internal/report"
)

// TestSmoke runs every workload once at seed 0, checks that no check
// fails and that the metrics printed by name, with their units, are
// exactly those BENCHMARK.json declares: end-to-end ones on untraced
// runs, per-layer ones on a traced run, whose spans must also form a
// Chrome trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	root, err := report.FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := report.LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	pins, err := loadPins(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Errorf("workloads %s, BENCHMARK.json declares %s", got, want)
	}

	small := func(w workload, traced bool) options {
		o := defaultOptions()
		o.setups, o.reps, o.traced = 1, 1, traced
		if w.name == "serve-cold" {
			o.reps = 4
		}
		return o
	}
	for _, w := range workloads {
		res, _ := runSmall(t, w, small(w, false), root, pins)
		checkPrinted(t, w.name, res, spec.EndToEnd)
	}

	w := workloads[2] // gups-bank: cheap, and it reaches every simulator layer
	res, tr := runSmall(t, w, small(w, true), root, pins)
	checkPrinted(t, w.name+" traced", res, spec.PerLayer)
	var buf bytes.Buffer
	if err := writeChrome(&buf, []*tracer{tr}, []string{w.name}); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("spans are not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" && e.Dur < 0 {
			t.Errorf("span %s has negative duration", e.Name)
		}
		seen[e.Name] = true
	}
	for _, name := range []string{"rep", "core.NewSystem", "core.RunGUPS", "driver.sim.schedule_fire"} {
		if !seen[name] {
			t.Errorf("no %s span in the trace", name)
		}
	}
}

func runSmall(t *testing.T, w workload, o options, root string, pins pinFile) (report.Workload, *tracer) {
	t.Helper()
	res, tr, err := runWorkload(w, o, root, pins)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: %d of %d checks failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
	}
	return res, tr
}

// checkPrinted parses the summary line printWorkload ends with and
// compares its metric names and units with the declared ones.
func checkPrinted(t *testing.T, name string, res report.Workload, want []report.MetricSpec) {
	t.Helper()
	var buf bytes.Buffer
	printWorkload(&buf, report.Meta{Traced: strings.HasSuffix(name, "traced")}, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the JSON summary: %v", name, err)
	}
	if !line.Correct {
		t.Errorf("%s: summary says incorrect", name)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", name, len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", name, m.Name)
		case got.Unit != m.Unit || got.Value == nil:
			t.Errorf("%s: %s printed with unit %q and value %v, want unit %q", name, m.Name, got.Unit, got.Value, m.Unit)
		}
	}
}
