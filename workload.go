package hmcsim

import (
	"fmt"

	"hmcsim/internal/addr"
	"hmcsim/internal/core"
	"hmcsim/internal/host"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// Measurement is what the monitoring logic reports for one workload
// run: counts, read-latency statistics, and counted request+response
// bandwidth.
type Measurement struct {
	Label    string  `json:"label,omitempty"`
	Reads    uint64  `json:"reads"`
	Writes   uint64  `json:"writes"`
	AvgLatNs float64 `json:"avgLatNs"`
	MinLatNs float64 `json:"minLatNs"`
	MaxLatNs float64 `json:"maxLatNs"`
	// GBps is counted request+response bytes per second.
	GBps     float64 `json:"gbps"`
	WindowNs float64 `json:"windowNs"`
	// HMCOutstanding is the time-averaged in-flight count inside the
	// cube (GUPS runs only).
	HMCOutstanding float64 `json:"hmcOutstanding,omitempty"`
	// AvgHMCLatNs is the mean time a read spends inside the cube (GUPS
	// runs only).
	AvgHMCLatNs float64 `json:"avgHmcLatNs,omitempty"`
	// Ports is the per-port breakdown for stream workloads.
	Ports []Measurement `json:"ports,omitempty"`
}

// ReadRate returns measured read transactions per second.
func (m Measurement) ReadRate() float64 {
	if m.WindowNs <= 0 {
		return 0
	}
	return float64(m.Reads) / (m.WindowNs * 1e-9)
}

// fromCore converts the GUPS driver's result.
func fromCore(r core.Result) Measurement {
	return Measurement{
		Reads:          r.Reads,
		Writes:         r.Writes,
		AvgLatNs:       r.AvgLat.Nanoseconds(),
		MinLatNs:       r.MinLat.Nanoseconds(),
		MaxLatNs:       r.MaxLat.Nanoseconds(),
		GBps:           r.Bandwidth.GBpsValue(),
		WindowNs:       r.Window.Nanoseconds(),
		HMCOutstanding: r.HMCOutstanding,
		AvgHMCLatNs:    r.AvgHMCLat.Nanoseconds(),
	}
}

// fromMonitor converts one port's monitor over an elapsed window.
func fromMonitor(m *host.Monitor, elapsed Time) Measurement {
	out := Measurement{
		Reads:    m.Reads,
		Writes:   m.Writes,
		AvgLatNs: m.AvgLat().Nanoseconds(),
		MinLatNs: m.MinLat.Nanoseconds(),
		MaxLatNs: m.MaxLat.Nanoseconds(),
		WindowNs: elapsed.Nanoseconds(),
	}
	if elapsed > 0 {
		out.GBps = float64(m.CountedBytes) / elapsed.Seconds() / 1e9
	}
	return out
}

// GUPS is the free-running random-access workload of the paper's Figure
// 5a: Ports address generators issue requests of Size bytes shaped by
// Pattern, warm up for Warmup, then measure for Window.
type GUPS struct {
	Ports   int
	Size    int
	Pattern PatternSpec
	Linear  bool // sequential instead of random addresses
	Mix     bool // even read/write mix instead of read-only
	Warmup  Time
	Window  Time
}

// Name identifies the workload configuration.
func (g GUPS) Name() string {
	return fmt.Sprintf("gups/%s/%dB/%dports", g.Pattern, g.Size, g.Ports)
}

// Run performs the measurement on a fresh set of ports.
func (g GUPS) Run(sys *System) Measurement {
	kind := traffic.ReadOnly
	if g.Mix {
		kind = traffic.ReadWriteMix
	}
	r := sys.RunGUPS(core.GUPSSpec{
		Ports:   g.Ports,
		Size:    g.Size,
		Kind:    kind,
		Pattern: g.Pattern.Build(sys),
		Linear:  g.Linear,
		Warmup:  g.Warmup,
		Window:  g.Window,
	})
	m := fromCore(r)
	m.Label = g.Name()
	return m
}

// Streams is the trace-driven workload of the paper's Figure 5b: one
// finite trace per port, all ports replaying simultaneously until every
// port drains. The Measurement aggregates all ports and carries the
// per-port breakdown in Ports.
type Streams struct {
	Label  string
	Traces [][]Request
}

// Name identifies the workload configuration.
func (s Streams) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("streams/%dports", len(s.Traces))
}

// Run replays the traces and aggregates the port monitors.
func (s Streams) Run(sys *System) Measurement {
	start := sys.Eng.Now()
	ports := sys.PlayStreams(s.Traces)
	elapsed := sys.Eng.Now() - start

	agg := Measurement{Label: s.Name(), WindowNs: elapsed.Nanoseconds()}
	var aggLat sim.Time
	var bytes uint64
	for _, p := range ports {
		pm := fromMonitor(&p.Mon, elapsed)
		agg.Ports = append(agg.Ports, pm)
		agg.Reads += p.Mon.Reads
		agg.Writes += p.Mon.Writes
		aggLat += p.Mon.AggLat
		bytes += p.Mon.CountedBytes
		if agg.MinLatNs == 0 || (pm.MinLatNs > 0 && pm.MinLatNs < agg.MinLatNs) {
			agg.MinLatNs = pm.MinLatNs
		}
		if pm.MaxLatNs > agg.MaxLatNs {
			agg.MaxLatNs = pm.MaxLatNs
		}
	}
	if agg.Reads > 0 {
		agg.AvgLatNs = (aggLat / sim.Time(agg.Reads)).Nanoseconds()
	}
	if elapsed > 0 {
		agg.GBps = float64(bytes) / elapsed.Seconds() / 1e9
	}
	return agg
}

// TraceReplay replays one request sequence on Ports identical stream
// ports, the CLI trace workflow as a workload value.
type TraceReplay struct {
	Label    string
	Requests []Request
	Ports    int
}

// Name identifies the workload configuration.
func (t TraceReplay) Name() string {
	if t.Label != "" {
		return t.Label
	}
	return fmt.Sprintf("replay/%dx%dreqs", t.ports(), len(t.Requests))
}

// ports returns the effective port count Run uses.
func (t TraceReplay) ports() int {
	if t.Ports <= 0 {
		return 1
	}
	return t.Ports
}

// Run copies the trace to every port and replays.
func (t TraceReplay) Run(sys *System) Measurement {
	n := t.ports()
	traces := make([][]Request, n)
	for i := range traces {
		traces[i] = t.Requests
	}
	m := Streams{Label: t.Name(), Traces: traces}.Run(sys)
	return m
}

// TraceSpec describes a synthetic trace: n requests of Size bytes
// confined to a structural subset of the cube. It is the programmatic
// form of the hmctrace CLI.
type TraceSpec struct {
	N    int
	Size int
	// Vaults confines addresses to the first N vaults (0 or 16 = whole
	// cube); Banks, when positive, confines to the first N banks of
	// vault 0 and overrides Vaults.
	Vaults     int
	Banks      int
	Writes     float64 // fraction of writes in [0, 1]
	Sequential bool    // sequential instead of random addresses
	Seed       uint64  // RNG seed; 0 uses the RNG's fixed default
	BlockSize  int     // address-interleave block size; 0 means 128
}

// Generate materializes the trace.
func (t TraceSpec) Generate() ([]Request, error) {
	if t.N < 0 {
		return nil, fmt.Errorf("hmcsim: trace length %d is negative", t.N)
	}
	if !packet.ValidSize(t.Size) {
		return nil, fmt.Errorf("hmcsim: trace size %d must be a multiple of 16 in [16,128]", t.Size)
	}
	if !(t.Writes >= 0 && t.Writes <= 1) { // NaN fails both comparisons
		return nil, fmt.Errorf("hmcsim: write fraction %g outside [0, 1]", t.Writes)
	}
	block := t.BlockSize
	if block == 0 {
		block = 128
	}
	mapping, err := addr.NewMapping(block)
	if err != nil {
		return nil, err
	}
	mask := addr.AllAccess
	switch {
	case t.Banks > 0:
		mask, err = mapping.BanksMask(t.Banks)
	case t.Vaults > 0 && t.Vaults != addr.Vaults:
		mask, err = mapping.VaultsMask(t.Vaults)
	}
	if err != nil {
		return nil, err
	}
	// sim.NewRand already maps a zero seed to its fixed default, so the
	// spec's zero value stays consistent with every other Seed field.
	rng := sim.NewRand(t.Seed)
	reqs := make([]Request, t.N)
	var cursor uint64
	for i := range reqs {
		var raw uint64
		if t.Sequential {
			raw = cursor
			cursor += uint64(t.Size)
		} else {
			raw = rng.Uint64()
		}
		a := mask.Apply(raw&(addr.CubeBytes-1)) &^ uint64(t.Size-1)
		reqs[i] = Request{
			Addr:  a,
			Size:  t.Size,
			Write: rng.Float64() < t.Writes,
		}
	}
	return reqs, nil
}
