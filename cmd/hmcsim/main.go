// Command hmcsim regenerates the tables and figures of "Performance
// Implications of NoCs on 3D-Stacked Memories: Insights from the Hybrid
// Memory Cube" (ISPASS 2018) on the cycle-level simulator in this
// repository. Experiments come from the internal/exp registry, so a
// newly registered runner appears here (and in -list) automatically.
//
// With -server the same commands run against one or more hmcsimd
// daemons instead of simulating locally: specs are submitted in batches
// and each job's progress stream is watched until it is done, so
// repeated runs of the same spec come back instantly from the daemon's
// result cache. A comma-separated -server list shards the experiments
// across the daemons, keeps each daemon's worker pool full, and fails a
// dead daemon's unfinished work over to its peers; results print in
// submission order either way.
//
// Usage:
//
//	hmcsim [-exp name[,name...]|all] [-quick] [-seed N] [-workers N]
//	       [-format text|json] [-traffic spec] [-trace] [-timeline file]
//	       [-spans] [-list] [-server URL[,URL...]] [-cpuprofile file]
//	       [-memprofile file]
//
// -trace (local runs only) compiles per-component tracers into every
// simulated system and dumps their aggregate summary — vault queue
// occupancy, link utilization, NoC hops, host tag-pool pressure —
// after the results (text) or as a "trace" field wrapping them (json).
//
// -timeline file (local runs only) traces the run the same way and
// writes the tracers' per-component activity — vault accepts, link
// flits, NoC hops, host tag traffic — over simulated time as Chrome
// trace_event JSON, loadable at https://ui.perfetto.dev. Without
// -trace, no summary prints.
//
// -spans (-server runs only) fetches each completed job's lifecycle
// stage breakdown (received, queued, cache-check, running, marshal,
// done) from its daemon and prints the per-job spans plus a per-daemon
// aggregate after the results; every job in the run shares one trace
// ID, also usable to correlate the daemons' job log records.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hmcsim"
	"hmcsim/internal/exp"
	"hmcsim/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("exp", "all", "experiment(s) to run: a registered name, a comma-separated list, or \"all\"")
	quick := fs.Bool("quick", false, "reduced sweeps and windows")
	seed := fs.Uint64("seed", 0, "workload seed override")
	workers := fs.Int("workers", 0, "sweep fan-out; 0 = NumCPU, 1 = sequential (results are identical either way)")
	format := fs.String("format", "text", "output format: text or json")
	trafficSpec := fs.String("traffic", "", "synthetic traffic spec for the \"traffic\" experiment: a pattern name or a JSON TrafficSpec")
	trace := fs.Bool("trace", false, "collect and dump per-component tracer summaries (local runs only)")
	timeline := fs.String("timeline", "", "write a Chrome trace_event timeline of per-component activity to this file (local runs only)")
	spans := fs.Bool("spans", false, "print per-job lifecycle spans and per-daemon aggregates (-server runs only)")
	list := fs.Bool("list", false, "list registered experiments and exit")
	server := fs.String("server", "", "comma-separated hmcsimd base URL(s); run remotely instead of simulating locally")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "hmcsim:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "hmcsim:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "hmcsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "hmcsim:", err)
			}
		}()
	}
	var fleet *service.Fleet
	if *server != "" {
		fleet = service.NewFleet(*server)
		fleet.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "hmcsim: "+format+"\n", args...)
		}
	}

	// -list ignores -format, so it is handled before format validation
	// (long-standing behavior scripts may rely on).
	if *list {
		return runList(ctx, fleet, stdout, stderr)
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "hmcsim: unknown format %q (want text or json)\n", *format)
		return 2
	}

	// "all" expands against whichever registry will actually run the
	// experiments: the daemon's in -server mode (the two binaries may
	// not be the same build), the local one otherwise.
	var names []string
	if *which != "all" {
		names = strings.Split(*which, ",")
		for i, name := range names {
			names[i] = strings.TrimSpace(name)
		}
	}
	o := exp.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	if *trafficSpec != "" {
		// Only the generic "traffic" experiment consumes the spec. For
		// any other selection the flag would be silently ignored — and,
		// in -server mode, needlessly fork the daemon's cache keys — so
		// reject the combination instead.
		if len(names) != 1 || names[0] != hmcsim.TrafficExp {
			fmt.Fprintln(stderr, `hmcsim: -traffic only applies to the "traffic" experiment (use -exp traffic)`)
			return 2
		}
		ts, err := parseTraffic(*trafficSpec)
		if err != nil {
			fmt.Fprintln(stderr, "hmcsim:", err)
			return 2
		}
		o.Traffic = ts
	}
	if fleet != nil {
		if *workers != 0 {
			fmt.Fprintln(stderr, "hmcsim: -workers is local-only; the daemon runs each job on one single-threaded engine")
		}
		if *trace {
			// Tracers change what the simulation records, not what it
			// computes, but they are not part of the spec — a daemon job
			// would silently ignore the flag, so reject it instead.
			fmt.Fprintln(stderr, "hmcsim: -trace is local-only; daemons expose aggregate statistics at /v1/stats instead")
			return 2
		}
		if *timeline != "" {
			// Same reasoning as -trace: the sampler rides inside the local
			// simulation contexts and has no remote equivalent.
			fmt.Fprintln(stderr, "hmcsim: -timeline is local-only; use -spans for per-job breakdowns of remote runs")
			return 2
		}
		return runRemote(ctx, fleet, names, o, *format, *spans, stdout, stderr)
	}
	if *spans {
		fmt.Fprintln(stderr, "hmcsim: -spans requires -server; local runs have no serving stages (use -trace or -timeline)")
		return 2
	}
	if names == nil {
		names = exp.Names()
	}
	return runLocal(ctx, names, o, *format, *trace, *timeline, stdout, stderr)
}

// parseTraffic turns the -traffic flag into a validated spec. The flag
// accepts either a bare pattern name ("zipf") or a full JSON
// TrafficSpec ({"pattern": "zipf", "zipfTheta": 1.2, ...}); an unknown
// pattern fails fast here with the same valid-name listing the daemon
// returns as HTTP 400.
func parseTraffic(arg string) (*hmcsim.TrafficSpec, error) {
	var spec hmcsim.TrafficSpec
	if strings.HasPrefix(strings.TrimSpace(arg), "{") {
		dec := json.NewDecoder(strings.NewReader(arg))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return nil, fmt.Errorf("bad -traffic JSON: %w", err)
		}
		if dec.More() {
			return nil, fmt.Errorf("bad -traffic JSON: trailing data after the spec object")
		}
	} else {
		spec.Pattern = arg
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// runList prints the experiment registry — the local one, or the
// fleet's when -server is set.
func runList(ctx context.Context, fleet *service.Fleet, stdout, stderr io.Writer) int {
	if fleet == nil {
		for _, r := range exp.Runners() {
			fmt.Fprintf(stdout, "%-14s %s\n", r.Name(), r.Describe())
		}
		return 0
	}
	exps, err := fleet.Experiments(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "hmcsim:", err)
		return 1
	}
	for _, e := range exps {
		fmt.Fprintf(stdout, "%-14s %s\n", e.Name, e.Title)
	}
	return 0
}

// runLocal simulates in this process, exactly the pre-daemon behavior.
// With trace or timeline set, every system the experiments build
// carries per-component tracers feeding one collector. With trace set,
// their aggregate summary prints after the results (text) or wraps them
// as a "trace" field (json); with timeline set, their activity over
// simulated time is written as Chrome trace_event JSON after the run.
func runLocal(ctx context.Context, names []string, o exp.Options, format string, trace bool, timeline string, stdout, stderr io.Writer) int {
	// Resolve every name before running anything: a typo late in the
	// list must fail fast, not discard minutes of completed sweeps.
	for _, name := range names {
		if _, err := exp.Runner(name); err != nil {
			fmt.Fprintln(stderr, "hmcsim:", err)
			return 2
		}
	}
	var col *hmcsim.TraceCollector
	if trace || timeline != "" {
		ctx, col = hmcsim.WithTrace(ctx)
	}
	if timeline != "" {
		// Fail on an unwritable path before simulating, not after.
		f, err := os.Create(timeline)
		if err != nil {
			fmt.Fprintln(stderr, "hmcsim:", err)
			return 2
		}
		defer func() {
			err := col.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, "hmcsim: write timeline:", err)
				return
			}
			fmt.Fprintf(stderr, "hmcsim: timeline written to %s (load it at https://ui.perfetto.dev)\n", timeline)
		}()
	}
	var results []hmcsim.Result
	for _, name := range names {
		start := time.Now()
		res, err := exp.Run(ctx, name, o)
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "hmcsim: interrupted")
			return 1
		}
		if err != nil {
			fmt.Fprintln(stderr, "hmcsim:", err)
			return 2
		}
		if format == "text" {
			fmt.Fprintln(stdout, res)
			fmt.Fprintf(stdout, "[%s took %v]\n\n", res.Name, time.Since(start).Round(time.Millisecond))
		} else {
			results = append(results, res)
		}
	}
	if format == "json" {
		if trace {
			return emitJSON(stdout, stderr, tracedResults{Results: results, Trace: col})
		}
		return emitJSON(stdout, stderr, results)
	}
	if trace {
		fmt.Fprintln(stdout, col)
	}
	return 0
}

// tracedResults is the -format json envelope when -trace is on: the
// plain results array becomes {"results": [...], "trace": {...}}.
type tracedResults struct {
	Results []hmcsim.Result        `json:"results"`
	Trace   *hmcsim.TraceCollector `json:"trace"`
}

// runRemote submits one spec per experiment to the daemon fleet in a
// batch, which shards them across the daemons and keeps every remote
// worker busy; results print in submission order. A nil names slice
// means every experiment the fleet registers. With spans set, every
// job's lifecycle breakdown is fetched from its daemon as it completes
// and printed — per job and aggregated per daemon — after the results.
func runRemote(ctx context.Context, fleet *service.Fleet, names []string, o exp.Options, format string, spans bool, stdout, stderr io.Writer) int {
	// Resolve every name against the fleet's registry before submitting
	// anything, mirroring runLocal's fail-fast contract: a typo late in
	// the list must not discard completed simulations.
	exps, err := fleet.Experiments(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "hmcsim:", err)
		return 1
	}
	known := make(map[string]bool, len(exps))
	for _, e := range exps {
		known[e.Name] = true
	}
	if names == nil {
		for _, e := range exps {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		if !known[name] {
			fmt.Fprintf(stderr, "hmcsim: unknown experiment %q on the fleet\n", name)
			return 2
		}
	}

	specs := make([]hmcsim.Spec, len(names))
	for i, name := range names {
		specs[i] = hmcsim.Spec{Exp: name, Options: o}
	}
	var spanReports []spanReport
	if spans {
		// One trace ID for the whole run stamps every job it creates, so
		// the daemons' span views and job log records correlate back to
		// this invocation. OnSpans calls are serialized by the fleet.
		fleet.TraceID = service.NewTraceID()
		fleet.OnSpans = func(daemon string, spec hmcsim.Spec, sv service.SpanView) {
			spanReports = append(spanReports, spanReport{Exp: spec.Exp, Daemon: daemon, Spans: sv})
		}
	}
	if format == "text" {
		// Batched runs complete out of order, so stdout keeps the
		// ordered rendering below; a progress line per completion keeps
		// a long fleet run from sitting silent for minutes.
		fleet.OnDone = func(spec hmcsim.Spec, v service.JobView) {
			fmt.Fprintf(stderr, "hmcsim: %s %s\n", spec.Exp, jobOutcome(v))
		}
		// Between completions, stream each running job's live headway
		// (SSE from the daemon), rate-limited so a chatty fleet does not
		// flood the terminal. OnProgress calls are serialized, so the
		// timestamp needs no lock.
		var lastLine time.Time
		fleet.OnProgress = func(spec hmcsim.Spec, p service.JobProgress) {
			if p.State.Terminal() || time.Since(lastLine) < 500*time.Millisecond {
				return // OnDone reports terminal outcomes
			}
			lastLine = time.Now()
			fmt.Fprintf(stderr, "hmcsim: %s running: %d/%d points, %.0f us simulated\n",
				spec.Exp, p.Done, p.Total, float64(p.SimTimePs)/1e6)
		}
	}
	views, err := fleet.Run(ctx, specs)
	if err != nil {
		if ctx.Err() != nil {
			// The fleet has already canceled its in-flight jobs (and
			// reported each through Logf) on the way out.
			fmt.Fprintln(stderr, "hmcsim: interrupted")
			return 1
		}
		// Salvage what finished before the failure: in text mode the
		// completed results still print (as the old one-job-at-a-time
		// path would have), so a sweep that dies on its last experiment
		// does not discard hours of finished simulations.
		if format == "text" {
			for i, job := range views {
				if job.State == service.StateDone {
					fmt.Fprintln(stdout, job.Text)
					fmt.Fprintf(stdout, "[%s %s]\n\n", names[i], jobOutcome(job))
				}
			}
		}
		fmt.Fprintln(stderr, "hmcsim:", err)
		return 1
	}
	var results []json.RawMessage
	for i, job := range views {
		if format == "text" {
			fmt.Fprintln(stdout, job.Text)
			fmt.Fprintf(stdout, "[%s %s]\n\n", names[i], jobOutcome(job))
		} else {
			results = append(results, job.Result)
		}
	}
	if format == "json" {
		if spans {
			return emitJSON(stdout, stderr, spannedResults{Results: results, TraceID: fleet.TraceID, Spans: spanReports})
		}
		return emitJSON(stdout, stderr, results)
	}
	if spans {
		printSpans(stdout, fleet.TraceID, spanReports)
	}
	return 0
}

// spanReport pairs one remote job's span view with the experiment and
// daemon it ran on, for the -spans rendering.
type spanReport struct {
	Exp    string           `json:"exp"`
	Daemon string           `json:"daemon"`
	Spans  service.SpanView `json:"spans"`
}

// spannedResults is the -format json envelope when -spans is on.
type spannedResults struct {
	Results []json.RawMessage `json:"results"`
	TraceID string            `json:"traceId"`
	Spans   []spanReport      `json:"spans"`
}

// printSpans renders the per-job breakdowns in completion order, then
// aggregates them per daemon so a sharded run shows at a glance where
// time went and which daemon served which share.
func printSpans(stdout io.Writer, traceID string, reports []spanReport) {
	fmt.Fprintf(stdout, "spans (trace %s):\n", traceID)
	type agg struct {
		daemon  string
		jobs    int
		cached  int
		totalMs float64
	}
	var order []string
	byDaemon := map[string]*agg{}
	for _, r := range reports {
		var b strings.Builder
		for i, st := range r.Spans.Stages {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %.1fms", st.Name, st.DurMs)
		}
		cached := ""
		if r.Spans.Cached {
			cached = " (cached)"
		}
		fmt.Fprintf(stdout, "  %-14s %s @ %s%s: total %.1fms: %s\n",
			r.Exp, r.Spans.ID, r.Daemon, cached, r.Spans.TotalMs, b.String())
		a := byDaemon[r.Daemon]
		if a == nil {
			a = &agg{daemon: r.Daemon}
			byDaemon[r.Daemon] = a
			order = append(order, r.Daemon)
		}
		a.jobs++
		if r.Spans.Cached {
			a.cached++
		}
		a.totalMs += r.Spans.TotalMs
	}
	for _, d := range order {
		a := byDaemon[d]
		fmt.Fprintf(stdout, "  %s: %d job(s), %d cached, %.1fms total latency\n",
			a.daemon, a.jobs, a.cached, a.totalMs)
	}
}

// jobOutcome renders how a remote job finished and how long it took,
// shared by the live progress lines and the final ordered output.
func jobOutcome(v service.JobView) string {
	how := "simulated"
	if v.Cached {
		how = "served from cache"
	}
	elapsed := time.Duration(v.ElapsedMs * float64(time.Millisecond))
	return fmt.Sprintf("%s in %v", how, elapsed.Round(time.Millisecond))
}

func emitJSON[T any](stdout, stderr io.Writer, results T) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(stderr, "hmcsim:", err)
		return 1
	}
	return 0
}
