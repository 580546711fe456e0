// Command hmcbench is the repository's benchmark. It runs named
// workloads against the simulator in one process, checks their outputs,
// and prints every end-to-end metric (or, traced, every per-layer
// metric) by name with its unit and sample count. The last line of
// standard output is a one-line JSON summary; -json writes the full run.
//
// From the repository root:
//
//	go -C bench run ./hmcbench -w gups-spread -seed 0
//	go -C bench run ./hmcbench -w all -json run.json
//	go -C bench run ./hmcbench -w serve-cold -traced -spans spans.json
//
// See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"hmcsim/bench/internal/report"
)

// options are the settings of one benchmark run.
type options struct {
	seed    uint64
	seconds float64 // timed loop length, split in halves when traced
	traced  bool
	setups  int // when > 0, set-ups per untraced run instead of the workload's own count
	minReps int // timed reps of a traced half run even past the deadline
	reps    int // when > 0, exactly this many timed reps per phase
}

func defaultOptions() options {
	return options{seconds: 8, minReps: 3}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := defaultOptions()
	var which, jsonOut, spansOut string
	var trace int
	var pin bool
	fs.StringVar(&which, "w", "all", "workload to run, or all")
	fs.StringVar(&which, "workload", "all", "same as -w")
	fs.Uint64Var(&opt.seed, "seed", 0, "workload seed; 0 is the config default the AB goldens pin, 7 is held out")
	fs.Float64Var(&opt.seconds, "seconds", opt.seconds, "length of the timed loop per workload")
	fs.BoolVar(&opt.traced, "traced", false, "traced run: print per-layer metrics instead of end-to-end ones")
	fs.IntVar(&trace, "trace", 0, "1 is the same as -traced")
	fs.StringVar(&jsonOut, "json", "", "write the full run as JSON to this file")
	fs.StringVar(&spansOut, "spans", "", "traced runs: write the spans as Chrome trace_event JSON to this file")
	fs.BoolVar(&pin, "pin", false, "record this run's digests for its seed in bench/testdata/pins.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 {
		opt.traced = true
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "hmcbench: -seconds must be positive")
		return 2
	}
	if spansOut != "" && !opt.traced {
		fmt.Fprintln(stderr, "hmcbench: -spans needs a traced run (-traced)")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if which == "all" || which == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "hmcbench: unknown workload %q (have %s, all)\n", which, strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := report.FindRoot()
	if err != nil {
		fmt.Fprintln(stderr, "hmcbench:", err)
		return 1
	}
	pins, err := loadPins(root)
	if err != nil {
		fmt.Fprintln(stderr, "hmcbench:", err)
		return 1
	}

	out := report.Run{Meta: metadata(opt)}
	var tracers []*tracer
	failed := false
	for _, w := range selected {
		res, tr, err := runWorkload(w, opt, root, pins)
		if err != nil {
			fmt.Fprintln(stderr, "hmcbench:", err)
			return 1
		}
		out.Workloads = append(out.Workloads, res)
		if tr != nil {
			tracers = append(tracers, tr)
		}
		printWorkload(stdout, out.Meta, res)
		failed = failed || res.Failed > 0
	}
	if pin {
		for _, w := range out.Workloads {
			pins.set(w.Name, opt.seed, w.Digest)
		}
		if err := pins.save(root); err != nil {
			fmt.Fprintln(stderr, "hmcbench:", err)
			return 1
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, out); err != nil {
			fmt.Fprintln(stderr, "hmcbench:", err)
			return 1
		}
	}
	if spansOut != "" {
		if err := writeSpans(spansOut, tracers, out.Workloads); err != nil {
			fmt.Fprintln(stderr, "hmcbench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metadata records the machine and build facts two runs must share to
// be compared.
func metadata(opt options) report.Meta {
	m := report.Meta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Traced:     opt.traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}

// workload is one named input set. start performs one set-up: it builds
// fresh state (systems, daemons, clients) and returns the session the
// warm-up and timed reps run on. An untraced run sets up setups times,
// each set-up followed by its share of the timed loop, so the set-ups
// are spread over the whole run. procs is GOMAXPROCS while the workload
// runs.
type workload struct {
	name   string
	setups int
	procs  int
	start  func(b *bench) (*session, error)
}

// session is a workload's live state. The timed loop calls rep in a
// closed loop, starting each rep when the previous one returns. span is
// the enclosing rep span, the parent of any span the rep records; i is
// -1 for the warm-up rep. after, when set, runs once after each timed
// phase, outside the timing, for checks too costly to make inside a rep.
type session struct {
	rep   func(i, span int) error
	after func() error
	close func()
}

// bench is the state of one workload's run shared with its reps.
type bench struct {
	opt  options
	root string

	// tr and traced are set only between timed phases, while no rep runs.
	tr     *tracer
	traced bool

	// nextRep numbers timed reps across phases, so a workload that gives
	// every rep its own input never repeats one.
	nextRep int

	// m times the set-ups and reps; only the goroutine running them
	// touches it.
	m *meter

	// mu guards what reps record: a rep may record from goroutines of
	// its own, such as a fleet's callbacks.
	mu        sync.Mutex
	samples   map[string][]float64
	refs      map[string]string // reference digest per output key
	attempted int
	failed    int
	failures  []string // the first maxFailures messages
}

const maxFailures = 20

// sample records one value of a per-layer metric in the current phase.
func (b *bench) sample(metric string, v float64) {
	b.mu.Lock()
	b.samples[metric] = append(b.samples[metric], v)
	b.mu.Unlock()
}

// split ends a segment of the rep or set-up being timed and starts the
// next, with a host-speed probe between them (see meter).
func (b *bench) split() { b.m.split() }

// agree checks an output digest against the first one recorded under
// the same key: reps of one seeded simulation must produce identical
// outputs, traced or not.
func (b *bench) agree(key, digest string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	ref, ok := b.refs[key]
	if !ok {
		b.refs[key] = digest
		return nil
	}
	if ref != digest {
		return fmt.Errorf("%s: output digest %.12s differs from the first rep's %.12s", key, digest, ref)
	}
	return nil
}

// digest is the run's digest: a hash over every reference output.
func (b *bench) digest() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.refs))
	for k := range b.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&s, "%s=%s\n", k, b.refs[k])
	}
	return sha(s.String())
}

// op counts one checked operation and records its failure, if any.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if len(b.failures) < maxFailures {
		b.failures = append(b.failures, err.Error())
	}
}

// phase is what one timed loop measured.
type phase struct {
	reps      []float64        // per-rep wall seconds
	repCPU    []float64        // per-rep process CPU seconds
	scaled    []float64        // per-rep wall seconds at the reference host speed
	scaledCPU []float64        // per-rep CPU seconds at the reference host speed
	probes    []float64        // the host-speed probes taken in the loop
	mem       runtime.MemStats // deltas over the loop
	samples   map[string][]float64
}

// timed runs the closed loop for seconds (at least minReps reps), or
// exactly opt.reps reps when that is set.
func (b *bench) timed(s *session, seconds float64, minReps int) phase {
	b.samples = map[string][]float64{}
	var ph phase
	limit := time.Duration(seconds * float64(time.Second))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.m.probes = b.m.probes[:0]
	start := time.Now()
	for k := 0; ; k++ {
		if b.opt.reps > 0 && k >= b.opt.reps ||
			b.opt.reps == 0 && k >= minReps && time.Since(start) >= limit {
			break
		}
		i := b.nextRep
		b.nextRep++
		id := b.tr.begin("rep", 0, i)
		b.m.start()
		err := s.rep(i, id)
		b.m.stop()
		b.tr.end(id)
		ph.reps = append(ph.reps, b.m.wall)
		ph.repCPU = append(ph.repCPU, b.m.cpu)
		ph.scaled = append(ph.scaled, b.m.scaledWall)
		ph.scaledCPU = append(ph.scaledCPU, b.m.scaledCPU)
		b.op(err)
	}
	ph.probes = append(ph.probes, b.m.probes...)
	runtime.ReadMemStats(&m1)
	ph.mem = runtime.MemStats{
		TotalAlloc:   m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:      m1.Mallocs - m0.Mallocs,
		NumGC:        m1.NumGC - m0.NumGC,
		PauseTotalNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	if s.after != nil {
		b.op(s.after())
	}
	ph.samples = b.samples
	return ph
}

// runWorkload performs the set-ups, the timed phases and the checks of
// one workload, returning its record and, on a traced run, its spans.
func runWorkload(w workload, opt options, root string, pins pinFile) (report.Workload, *tracer, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	b := &bench{opt: opt, root: root, m: newMeter(w.procs), refs: map[string]string{}, samples: map[string][]float64{}}
	var setupTimes []float64
	setUp := func() (*session, error) {
		b.m.start()
		s, err := w.start(b)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		b.op(s.rep(-1, 0)) // the warm-up rep, discarded
		b.m.stop()
		setupTimes = append(setupTimes, b.m.scaledWall)
		return s, nil
	}

	res := report.Workload{Name: w.name, Procs: w.procs, Setups: 1}
	var tr *tracer
	if !opt.traced {
		// A slow stretch on a shared host lasts seconds; set-ups spread
		// over the run keep it from covering most of them at once.
		res.Setups = w.setups
		if opt.setups > 0 {
			res.Setups = opt.setups
		}
		var phases []phase
		for k := 0; k < res.Setups; k++ {
			s, err := setUp()
			if err != nil {
				return report.Workload{}, nil, err
			}
			phases = append(phases, b.timed(s, opt.seconds/float64(res.Setups), 1))
			s.close()
			res.Reps += len(phases[k].reps)
		}
		res.Metrics = endToEndMetrics(phases, setupTimes)
	} else {
		s, err := setUp()
		if err != nil {
			return report.Workload{}, nil, err
		}
		defer s.close()
		plain := b.timed(s, opt.seconds/2, opt.minReps)
		tr = newTracer()
		b.tr, b.traced = tr, true
		traced := b.timed(s, opt.seconds/2, opt.minReps)
		runDrivers(b, traced.samples)
		res.Reps = len(plain.reps) + len(traced.reps)
		res.Metrics = perLayerMetrics(plain, traced, tr)
	}

	res.Digest = b.digest()
	res.Pin = "unpinned"
	if want, ok := pins.get(w.name, opt.seed); ok {
		res.Pin = "match"
		var err error
		if want != res.Digest {
			res.Pin = "mismatch"
			err = fmt.Errorf("pin: digest %.12s, bench/testdata/pins.json has %.12s for seed %d", res.Digest, want, opt.seed)
		}
		b.op(err)
	}
	res.Attempted, res.Failed, res.Failures = b.attempted, b.failed, b.failures
	return res, tr, nil
}

// endToEndMetrics summarizes the untraced loops, one per set-up: the
// median set-up, rep wall time and rep CPU time, each at the reference
// host speed (see probe.go), and the peak resident set.
func endToEndMetrics(phases []phase, setups []float64) []report.Metric {
	var reps, cpus []float64
	for _, ph := range phases {
		reps = append(reps, ph.scaled...)
		cpus = append(cpus, ph.scaledCPU...)
	}
	rss := peakRSSMB()
	return []report.Metric{
		report.Summarize("setup_s", "s", setups),
		report.Summarize("rep_s", "s", reps),
		report.Summarize("rep_cpu_s", "s", cpus),
		{Name: "peak_rss_mb", Unit: "MB", Value: rss, Q1: rss, Q3: rss, N: 1},
	}
}

// perLayerMetrics assembles the per-layer metrics: samples recorded by
// the reps and drivers of the traced phase, span self times, and the
// runtime and tracing-overhead figures that compare the two phases.
func perLayerMetrics(plain, traced phase, tr *tracer) []report.Metric {
	samples := traced.samples
	for name, durs := range tr.selfTimes() {
		sm, ok := spanMetrics[name]
		if strings.HasPrefix(name, "exp.") {
			sm.metric, sm.scale, ok = runnerMetric(strings.TrimPrefix(name, "exp.")), 1, true
		}
		if !ok {
			continue
		}
		for _, d := range durs {
			samples[sm.metric] = append(samples[sm.metric], d.Seconds()*sm.scale)
		}
	}
	// Host time per simulated event and simulated time per host second,
	// from the median simulating call and the events it retired.
	if ev := report.Median(samples["sim.events"]); ev > 0 {
		if run := report.Median(samples["core.run_ms"]); run > 0 {
			samples["sim.ns_per_event"] = []float64{run * 1e6 / ev}
			samples["sim.us_per_s"] = []float64{report.Median(samples["sim.simulated_us"]) / (run / 1e3)}
		}
	}
	if req := samples["service.request_ms"]; len(req) > 0 {
		samples["service.request_p50_ms"] = []float64{report.Median(req)}
		samples["service.request_p99_ms"] = []float64{report.Quantile(req, 0.99)}
	}
	n := float64(len(plain.reps))
	samples["client.rep_p50_s"] = plain.reps
	samples["client.rep_p90_s"] = []float64{report.Quantile(plain.reps, 0.9)}
	samples["client.rep_cpu_s"] = plain.repCPU
	samples["client.reps_per_s"] = []float64{n / sum(plain.reps)}
	samples["client.host_slowdown"] = []float64{report.Median(plain.probes) / probeRef}
	samples["runtime.alloc_mb"] = []float64{float64(plain.mem.TotalAlloc) / 1e6 / n}
	samples["runtime.allocs"] = []float64{float64(plain.mem.Mallocs) / n}
	samples["runtime.gc_cycles"] = []float64{float64(plain.mem.NumGC) / n}
	samples["runtime.gc_pause_ms"] = []float64{float64(plain.mem.PauseTotalNs) / 1e6 / n}
	samples["obs.overhead_pct"] = []float64{(report.Median(traced.reps)/report.Median(plain.reps) - 1) * 100}

	var out []report.Metric
	for _, d := range perLayer() {
		out = append(out, report.Summarize(d.name, d.unit, samples[d.name]))
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// cpuSeconds returns the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set (ru_maxrss, in KiB
// on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// printWorkload prints one workload's table and then its one-line JSON
// summary; for a single workload that summary is the last line of
// output.
func printWorkload(w io.Writer, meta report.Meta, res report.Workload) {
	mode := "end-to-end"
	if meta.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  setups %d  reps %d  checks %d/%d passed  pin %s\n",
		res.Name, meta.Seed, mode, res.Setups, res.Reps, res.Attempted-res.Failed, res.Attempted, res.Pin)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	fmt.Fprintf(w, "  %-28s %14s %14s %14s %6s  %s\n", "metric", "value", "q1", "q3", "n", "unit")
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "  %-28s %14.6g %14.6g %14.6g %6d  %s\n", m.Name, m.Value, m.Q1, m.Q3, m.N, m.Unit)
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]any{}}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		panic(err) // only a NaN or infinite metric fails to marshal, and that is a bug
	}
	fmt.Fprintln(w, string(blob))
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func writeSpans(path string, tracers []*tracer, res []report.Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	names := make([]string, len(tracers))
	for i := range tracers {
		names[i] = res[i].Name
	}
	if err := writeChrome(f, tracers, names); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
