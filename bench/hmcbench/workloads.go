package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hmcsim"
	"hmcsim/internal/addr"
	"hmcsim/internal/core"
	"hmcsim/internal/exp"
	"hmcsim/internal/obs"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// workloads, in run order. Every one runs on the serial engine (Shards
// 0) in a single closed loop of reps. All but paper-quick, whose two
// sweep workers are its point, run one simulation at a time, on one
// processor: work spread over both of the two CPUs slows whenever the
// shared host is busy on either, and with a second processor and
// nothing to run on it the Go scheduler spins and hands goroutines
// across CPUs, which serve-warm measured as 40 % more time per rep, and
// as much more spread. BENCHMARK.json records why each workload is in
// the set. paper-quick, whose set-up and rep take seconds each, sets up
// twice, each set-up followed by one rep, so that a run of it lasts
// about 20 s.
var workloads = []workload{
	{name: "paper-quick", setups: 2, procs: 2, start: startPaper},
	{name: "gups-spread", setups: 9, procs: 1, start: startCore(gupsSpread)},
	{name: "gups-bank", setups: 9, procs: 1, start: startCore(gupsBank)},
	{name: "traffic-rw", setups: 9, procs: 1, start: startCore(trafficRWRun)},
	{name: "serve-cold", setups: 9, procs: 1, start: startServeCold},
	{name: "serve-warm", setups: 9, procs: 1, start: startServeWarm},
	{name: "serve-fleet", setups: 9, procs: 1, start: startServeFleet},
}

// The core workloads simulate 30 us of warm-up and a 120 us window.
const (
	coreWarmup = 30 * sim.Microsecond
	coreWindow = 120 * sim.Microsecond
)

// The paper's quoted values that the model is compared against: the
// saturated 16-vault 128 B bandwidth of Figure 6, and the outstanding
// requests of Figure 14 at two and four banks.
const (
	paperFig6GBps   = 23.0
	paperFig14Two   = 288.0
	paperFig14Four  = 535.0
	paperWorkers    = 2 // sweep workers of paper-quick: the two simulation threads allowed
	paperGoldenPath = "internal/exp/testdata/ab"
)

// trafficRW is the synthetic traffic of traffic-rw and of every serve
// job: zipf theta 0.9, 30% writes in markov runs of 4, open loop at
// 1.5 GB/s per port.
var trafficRW = traffic.Spec{
	Pattern:       traffic.PatternZipf,
	ZipfTheta:     0.9,
	WriteFraction: 0.3,
	MixRunLength:  4,
	Discipline:    traffic.DisciplineOpen,
	RateGBps:      1.5,
}

// coreSpec is one core-driver simulation on a fresh system.
type coreSpec struct {
	span string // the span around the driver call
	run  func(sys *core.System) (core.Result, error)
	// offered is the open-loop request rate across all ports, per
	// simulated second; 0 for closed-loop workloads.
	offered float64
	// paperErr, when set, returns the model's error against the paper's
	// value for this configuration, in percent.
	paperErr func(core.Result) float64
}

var gupsSpread = coreSpec{
	span: "core.RunGUPS",
	run: func(sys *core.System) (core.Result, error) {
		return sys.RunGUPS(core.GUPSSpec{Ports: 9, Size: 128, Pattern: core.AllVaults(), Warmup: coreWarmup, Window: coreWindow}), nil
	},
	paperErr: func(r core.Result) float64 { return relErrPct(r.Bandwidth.GBpsValue(), paperFig6GBps) },
}

var gupsBank = coreSpec{
	span: "core.RunGUPS",
	run: func(sys *core.System) (core.Result, error) {
		return sys.RunGUPS(core.GUPSSpec{Ports: 9, Size: 128, Pattern: sys.Banks(2), Warmup: coreWarmup, Window: coreWindow}), nil
	},
	// Figure 14's estimate: Little's law over the cube's read rate and
	// the time a read spends inside it.
	paperErr: func(r core.Result) float64 {
		return relErrPct(r.ReadRate()*r.AvgHMCLat.Seconds(), paperFig14Two)
	},
}

var trafficRWRun = coreSpec{
	span: "core.RunTraffic",
	run: func(sys *core.System) (core.Result, error) {
		return sys.RunTraffic(core.TrafficRunSpec{Ports: 9, Size: 64, Traffic: trafficRW, Warmup: coreWarmup, Window: coreWindow})
	},
	offered: 9 * trafficRW.RateGBps * 1e9 / 64,
}

func relErrPct(got, want float64) float64 { return math.Abs(got-want) / want * 100 }

// counters are the public counters of every layer of a core system,
// read after each rep. They repeat exactly across reps of one seed.
type counters struct {
	Events    uint64  `json:"events"`
	Requests  uint64  `json:"requests"`
	CtrlUtil  float64 `json:"ctrlUtil"`
	ReqUtil   float64 `json:"reqUtil"`
	RespUtil  float64 `json:"respUtil"`
	Flits     uint64  `json:"flits"`
	Retries   uint64  `json:"retries"`
	TSVUtil   float64 `json:"tsvUtil"`
	Accesses  uint64  `json:"accesses"`
	RowHits   uint64  `json:"rowHits"`
	Refreshes uint64  `json:"refreshes"`
}

func readCounters(sys *core.System) counters {
	now := sys.Eng.Now()
	c := counters{Events: sys.Eng.Fired(), Requests: sys.Ctrl.RequestsSent(), CtrlUtil: sys.Ctrl.Utilization(now)}
	links := sys.HMC.Links()
	for l := 0; l < links; l++ {
		lk := sys.HMC.Link(l)
		c.ReqUtil += lk.Req.Utilization(now) / float64(links)
		c.RespUtil += lk.Resp.Utilization(now) / float64(links)
		c.Flits += lk.Req.Flits() + lk.Resp.Flits()
		c.Retries += lk.Req.Retries() + lk.Resp.Retries()
	}
	for v := 0; v < addr.Vaults; v++ {
		vt := sys.HMC.Vault(v)
		c.TSVUtil += vt.TSVUtilization(now) / addr.Vaults
		for bk := 0; bk < sys.Cfg.HMC.Vault.Banks; bk++ {
			bank := vt.Bank(bk)
			c.Accesses += bank.Accesses()
			c.RowHits += bank.RowHits()
			c.Refreshes += bank.Refreshes()
		}
	}
	return c
}

func (c counters) record(b *bench) {
	for name, v := range map[string]float64{
		"sim.events":     float64(c.Events),
		"host.requests":  float64(c.Requests),
		"host.ctrl_util": c.CtrlUtil,
		"link.req_util":  c.ReqUtil,
		"link.resp_util": c.RespUtil,
		"link.flits":     float64(c.Flits),
		"link.retries":   float64(c.Retries),
		"vault.tsv_util": c.TSVUtil,
		"dram.accesses":  float64(c.Accesses),
		"dram.row_hits":  float64(c.RowHits),
		"dram.refreshes": float64(c.Refreshes),
	} {
		b.sample(name, v)
	}
}

// recordObs samples what the obs tracers saw: the tag pools, the
// fabric and the vault admission paths. Link figures come from the obs
// summary only where no public counter is readable (paper-quick).
func recordObs(b *bench, s *obs.Summary, links bool) {
	b.sample("host.tag_waits", float64(s.Host.TagWaits))
	b.sample("host.outstanding_mean", s.Host.Outstanding.Mean)
	b.sample("noc.hops", float64(s.NoC.Hops))
	b.sample("noc.credit_stalls", float64(s.NoC.Stalls))
	b.sample("noc.queue_mean", s.NoC.Queue.Mean)
	b.sample("vault.accepts", float64(s.Vaults.Accepts))
	b.sample("vault.rejects", float64(s.Vaults.Rejects))
	b.sample("vault.occupancy_mean", s.Vaults.Occupancy.Mean)
	if !links {
		return
	}
	var flits, retries uint64
	var req, resp float64
	for _, l := range s.Links {
		flits += l.Flits
		retries += l.Retries
		if strings.HasSuffix(l.Name, ".req") {
			req += l.Utilization / float64(len(s.Links)/2)
		} else {
			resp += l.Utilization / float64(len(s.Links)/2)
		}
	}
	b.sample("link.flits", float64(flits))
	b.sample("link.retries", float64(retries))
	b.sample("link.req_util", req)
	b.sample("link.resp_util", resp)
}

// startCore returns the set-up of a core workload. Each rep builds a
// fresh system from the seeded default configuration and runs the
// driver on it, so every rep repeats one simulation exactly.
func startCore(c coreSpec) func(b *bench) (*session, error) {
	return func(b *bench) (*session, error) {
		base := core.DefaultConfig()
		if b.opt.seed != 0 {
			base.Seed = b.opt.seed
		}
		rep := func(i, span int) error {
			cfg := base
			var col *obs.Collector
			if b.traced {
				col = &obs.Collector{}
				cfg.Trace = col.NewSystem()
			}
			id := b.tr.begin("core.NewSystem", span, i)
			sys := core.NewSystem(cfg)
			b.tr.end(id)
			id = b.tr.begin(c.span, span, i)
			res, err := c.run(sys)
			b.tr.end(id)
			if err != nil {
				return err
			}
			ctr := readCounters(sys)
			d, err := shaJSON(struct {
				Result   core.Result `json:"result"`
				Counters counters    `json:"counters"`
			}{res, ctr})
			if err != nil {
				return err
			}
			if err := b.agree("simulated statistics", d); err != nil {
				return err
			}
			ctr.record(b)
			simulated := (coreWarmup + coreWindow).Seconds()
			b.sample("sim.simulated_us", simulated*1e6)
			b.sample("model.gbps", res.Bandwidth.GBpsValue())
			b.sample("model.lat_avg_ns", res.AvgLat.Nanoseconds())
			if c.paperErr != nil {
				b.sample("model.paper_err_pct", c.paperErr(res))
			}
			if c.offered > 0 {
				b.sample("host.open_loop_shortfall", 1-float64(ctr.Requests)/(c.offered*simulated))
			}
			if col != nil {
				recordObs(b, col.Summary(), false)
			}
			return nil
		}
		return &session{rep: rep, close: func() {}}, nil
	}
}

// startPaper sets up paper-quick: every registered runner at quick
// fidelity with two sweep workers, as `hmcsim -exp all -quick` runs
// them. At seed 0 each Result must match its AB golden byte for byte.
// A rep lasts seconds, as long as the host's slow stretches, so each
// runner is timed as a segment of its own (see meter).
func startPaper(b *bench) (*session, error) {
	runners := exp.Runners()
	golden := map[string][]byte{}
	if b.opt.seed == 0 {
		for _, r := range runners {
			blob, err := os.ReadFile(filepath.Join(b.root, paperGoldenPath, r.Name()+".json"))
			if err != nil {
				return nil, err
			}
			golden[r.Name()] = blob
		}
	}
	o := exp.Options{Quick: true, Seed: b.opt.seed, Workers: paperWorkers}
	rep := func(i, span int) error {
		ctx := context.Background()
		var tc *hmcsim.TraceCollector
		var prog hmcsim.Progress
		if b.traced {
			ctx, tc = hmcsim.WithTrace(ctx)
			ctx = hmcsim.WithProgress(ctx, func(p hmcsim.Progress) { prog = p })
		}
		cpu0, t0 := cpuSeconds(), time.Now()
		h := sha256.New()
		results := map[string]hmcsim.Result{}
		for k, r := range runners {
			if k > 0 && !b.traced {
				b.split() // traced reps report raw host time, probe-free
			}
			id := b.tr.begin("exp."+r.Name(), span, i)
			res, err := r.Run(ctx, o)
			b.tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", r.Name(), err)
			}
			id = b.tr.begin("hmcsim.Result.JSON", span, i)
			blob, err := res.JSON()
			b.tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", r.Name(), err)
			}
			if want, ok := golden[r.Name()]; ok && !bytes.Equal(blob, want) {
				return fmt.Errorf("%s: Result JSON differs from %s/%s.json", r.Name(), paperGoldenPath, r.Name())
			}
			h.Write(blob)
			results[r.Name()] = res
		}
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		if err := b.agree("results", hex.EncodeToString(h.Sum(nil))); err != nil {
			return err
		}
		if err := recordPaperModel(b, results); err != nil {
			return err
		}
		if b.traced {
			b.sample("hmcsim.sweep_util", cpu/(wall*paperWorkers))
			b.sample("sim.events", float64(prog.Events))
			if prog.Events > 0 {
				b.sample("sim.ns_per_event", cpu*1e9/float64(prog.Events))
				b.sample("sim.us_per_s", float64(prog.SimTimePs)/1e6/cpu)
			}
			blob, err := tc.MarshalJSON()
			if err != nil {
				return err
			}
			var s obs.Summary
			if err := json.Unmarshal(blob, &s); err != nil {
				return err
			}
			recordObs(b, &s, true)
		}
		return nil
	}
	return &session{rep: rep, close: func() {}}, nil
}

// recordPaperModel samples the modelled figures paper-quick yields:
// Figure 6's saturated 16-vault 128 B point, and the mean relative
// error of the three values the paper quotes.
func recordPaperModel(b *bench, results map[string]hmcsim.Result) error {
	lookup := func(exp, series, label string, x float64) (float64, error) {
		s, ok := results[exp].Get(series)
		if ok {
			if y, ok := s.Lookup(label, x); ok {
				return y, nil
			}
		}
		return 0, fmt.Errorf("%s: no %s point %q at %g", exp, series, label, x)
	}
	gbps, err := lookup("fig6", "bandwidth", "16 vaults", 128)
	if err != nil {
		return err
	}
	lat, err := lookup("fig6", "avg-latency", "16 vaults", 128)
	if err != nil {
		return err
	}
	two, four := littleMean(results["fig14"], "2banks"), littleMean(results["fig14"], "4banks")
	b.sample("model.gbps", gbps)
	b.sample("model.lat_avg_ns", lat)
	b.sample("model.paper_err_pct",
		(relErrPct(gbps, paperFig6GBps)+relErrPct(two, paperFig14Two)+relErrPct(four, paperFig14Four))/3)
	return nil
}

// littleMean averages Figure 14's Little's-law estimate over request
// sizes for one bank count, as the paper's quoted averages do.
func littleMean(r hmcsim.Result, label string) float64 {
	s, _ := r.Get("little-outstanding")
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.Label == label {
			sum += p.Y
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
