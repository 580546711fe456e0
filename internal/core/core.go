// Package core assembles the host FPGA model and the HMC cube into a
// System and provides the two low-level experiment drivers the paper
// uses — free-running GUPS traffic and finite multi-port streams —
// returning the same statistics the paper's monitoring logic reports
// (access counts, min/avg/max read latency, and counted
// request+response bandwidth).
//
// RunGUPS and RunTraffic differ only in the generators they build:
// traffic.GUPS for the GUPS firmware, a compiled traffic.Spec for
// synthetic traffic. Both hand them to runPorts, which makes the
// free-running host.TrafficPorts, starts them, measures a window and
// stops them.
//
// core is the one driver layer for every workload: hmcsim.System
// aliases System, so programs outside this module call RunGUPS,
// RunTraffic and PlayStreams through it (hmcsim.GUPSSpec and
// hmcsim.TrafficRunSpec alias the specs here), and the runners in
// internal/exp and the benchmark's core workloads call them directly.
// The hmcsim package doc has a quickstart.
package core

import (
	"fmt"

	"hmcsim/internal/addr"
	"hmcsim/internal/hmc"
	"hmcsim/internal/host"
	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/phys"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// Config assembles a full system.
type Config struct {
	Host      host.Config
	HMC       hmc.Config
	BlockSize int    // address-interleave block size (Figure 3); 128 default
	Seed      uint64 // base RNG seed for all ports

	// Trace, when non-nil, threads per-component tracers through the
	// cube and host as the system is assembled. Nil keeps every kernel
	// hot path on its untraced fast path.
	Trace *obs.SystemTracer
}

// DefaultConfig returns the AC-510 + 4 GB HMC 1.1 system of the paper.
func DefaultConfig() Config {
	return Config{
		Host:      host.DefaultConfig(),
		HMC:       hmc.DefaultConfig(),
		BlockSize: 128,
		Seed:      1,
	}
}

// System is an assembled simulation: engine, cube, controller and address
// mapping. Ports are created per experiment.
type System struct {
	Cfg  Config
	Eng  *sim.Engine
	HMC  *hmc.HMC
	Ctrl *host.Controller
	Map  *addr.Mapping

	portsMade   int
	streamPorts []*host.StreamPort
}

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) *System {
	eng := sim.NewEngine()
	if cfg.Trace != nil {
		cfg.HMC.Trace = cfg.Trace
		cfg.Host.Trace = &cfg.Trace.Host
	}
	s := &System{Cfg: cfg, Eng: eng, Map: addr.MustMapping(cfg.BlockSize)}
	s.stopTraceClock() // before the cube's tracers, which attach to it
	var ctrl *host.Controller
	s.HMC = hmc.New(eng, cfg.HMC, func(p *packet.Packet) { ctrl.OnResponse(p) })
	ctrl = host.NewController(eng, cfg.Host, s.HMC)
	s.Ctrl = ctrl
	return s
}

// startTraceClock points a traced system's tracer at the engine's
// clock for the length of a run. runPorts and PlayStreams, the only
// callers that advance the engine, start it on entry and stop it on
// return.
func (s *System) startTraceClock() {
	if s.Cfg.Trace == nil {
		return
	}
	eng := s.Eng
	s.Cfg.Trace.SetClock(func() int64 { return int64(eng.Now()) })
}

// stopTraceClock gives a traced system's tracer the engine's current
// reading as a constant. Between runs the tracer so holds a number, not
// the engine: the collector outlives its systems, and a clock that
// read the engine kept it, and through its pending events the whole
// system, alive until the collector was dropped.
func (s *System) stopTraceClock() {
	if s.Cfg.Trace == nil {
		return
	}
	now := int64(s.Eng.Now())
	s.Cfg.Trace.SetClock(func() int64 { return now })
}

// Pattern is a named address-restriction, wrapping the GUPS mask machinery
// of Section III-B.
type Pattern struct {
	Name string
	Mask addr.Mask
}

// AllVaults returns the unrestricted pattern: the whole cube.
func AllVaults() Pattern { return Pattern{Name: "16 vaults", Mask: addr.AllAccess} }

// Vaults returns a pattern confined to the first n vaults (n a power of
// two up to 16).
func (s *System) Vaults(n int) Pattern {
	if n == addr.Vaults {
		return AllVaults()
	}
	m, err := s.Map.VaultsMask(n)
	if err != nil {
		panic(err)
	}
	name := fmt.Sprintf("%d vaults", n)
	if n == 1 {
		name = "1 vault"
	}
	return Pattern{Name: name, Mask: m}
}

// Banks returns a pattern confined to n banks of vault 0.
func (s *System) Banks(n int) Pattern {
	m, err := s.Map.BanksMask(n)
	if err != nil {
		panic(err)
	}
	name := fmt.Sprintf("%d banks", n)
	if n == 1 {
		name = "1 bank"
	}
	return Pattern{Name: name, Mask: m}
}

// SingleVault returns the pattern for exactly vault v.
func (s *System) SingleVault(v int) Pattern {
	m, err := s.Map.SingleVaultMask(v)
	if err != nil {
		panic(err)
	}
	return Pattern{Name: fmt.Sprintf("vault %d", v), Mask: m}
}

// GUPSSpec configures a GUPS measurement run.
type GUPSSpec struct {
	Ports   int                 // active ports, 1..9
	Size    int                 // request size in bytes
	Kind    traffic.RequestKind // read-only by default
	Pattern Pattern
	Linear  bool
	Warmup  sim.Time // traffic before counters reset
	Window  sim.Time // measurement window after warm-up
	Tags    int      // per-port override; 0 = config default
}

// Result aggregates what the monitoring logic reports for one run.
type Result struct {
	Spec         GUPSSpec
	Reads        uint64
	Writes       uint64
	AvgLat       sim.Time
	MinLat       sim.Time
	MaxLat       sim.Time
	CountedBytes uint64
	Window       sim.Time
	Bandwidth    phys.Bandwidth // counted request+response bytes per second

	// HMCOutstanding is the time-averaged number of transactions inside
	// the cube during the window, the quantity Figure 14 estimates with
	// Little's law.
	HMCOutstanding float64
	// AvgHMCLat is the mean time a read spends inside the cube (link
	// arrival to response injection); rate x AvgHMCLat is the paper's
	// Little's-law estimate.
	AvgHMCLat sim.Time
}

// ReadRate returns measured read transactions per second.
func (r Result) ReadRate() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Reads) / r.Window.Seconds()
}

// RunGUPS performs one GUPS experiment on a fresh set of ports. The
// system must not have ports registered already; use a new System per
// call sequence (each call uses distinct port IDs, so repeated calls on
// one System are also fine until port IDs run out at MaxPorts).
func (s *System) RunGUPS(spec GUPSSpec) Result {
	if spec.Ports <= 0 || spec.Ports > MaxPorts {
		panic(fmt.Sprintf("core: %d ports out of range", spec.Ports))
	}
	if spec.Window <= 0 {
		panic("core: GUPS window must be positive")
	}
	gens := make([]*traffic.Gen, spec.Ports)
	for i := range gens {
		// The GUPS firmware seeds each port from its own seed and its
		// port ID, which runPorts hands out in order.
		id := uint64(s.portsMade + i)
		seed := s.portSeed(i) + id*0x9E3779B9 + 1
		gens[i] = traffic.GUPS(spec.Pattern.Mask, spec.Size, seed, spec.Linear, spec.Kind)
	}
	res := s.runPorts(gens, spec.Size, spec.Tags, spec.Warmup, spec.Window)
	res.Spec = spec
	return res
}

// portSeed is the seed of a run's i-th port.
func (s *System) portSeed(i int) uint64 { return s.Cfg.Seed + uint64(i)*977 }

// runPorts is the measurement RunGUPS and RunTraffic share. It makes
// and starts one TrafficPort per generator and runs them through
// warm-up.
// Then it clears the monitors, samples cube occupancy through the
// window for the Little's-law analysis, stops the ports and aggregates
// their monitors into a Result.
func (s *System) runPorts(gens []*traffic.Gen, size, tags int, warmup, window sim.Time) Result {
	s.startTraceClock()
	defer s.stopTraceClock()
	var hmcLatSum sim.Time
	var hmcLatN uint64
	ports := make([]*host.TrafficPort, len(gens))
	for i, gen := range gens {
		p := host.NewTrafficPort(s.Eng, s.Cfg.Host, s.Ctrl, s.Map, s.nextPortID(), host.TrafficConfig{
			Size: size,
			Gen:  gen,
			Tags: tags,
		})
		p.Mon.OnComplete = func(tr *packet.Transaction) {
			hmcLatSum += tr.HMCLatency()
			hmcLatN++
		}
		p.Start()
		ports[i] = p
	}

	start := s.Eng.Now()
	s.Eng.Run(start + warmup)
	for _, p := range ports {
		p.Mon.Reset(s.Eng.Now())
	}
	hmcLatSum, hmcLatN = 0, 0

	occSamples := 0
	occSum := 0.0
	sampleEvery := window / 64
	if sampleEvery <= 0 {
		sampleEvery = window
	}
	var sample func()
	stopAt := start + warmup + window
	sample = func() {
		occSum += float64(s.HMC.InFlight())
		occSamples++
		if s.Eng.Now()+sampleEvery <= stopAt {
			s.Eng.Schedule(sampleEvery, sample)
		}
	}
	s.Eng.Schedule(sampleEvery, sample)

	s.Eng.Run(stopAt)
	res := Result{Window: window}
	for _, p := range ports {
		p.Stop()
		m := &p.Mon
		res.Reads += m.Reads
		res.Writes += m.Writes
		res.CountedBytes += m.CountedBytes
		res.AvgLat += m.AggLat
		if res.MinLat == 0 || (m.MinLat > 0 && m.MinLat < res.MinLat) {
			res.MinLat = m.MinLat
		}
		if m.MaxLat > res.MaxLat {
			res.MaxLat = m.MaxLat
		}
	}
	if res.Reads > 0 {
		res.AvgLat /= sim.Time(res.Reads)
	}
	res.Bandwidth = phys.Rate(res.CountedBytes, window)
	if occSamples > 0 {
		res.HMCOutstanding = occSum / float64(occSamples)
	}
	if hmcLatN > 0 {
		res.AvgHMCLat = hmcLatSum / sim.Time(hmcLatN)
	}
	return res
}

// MaxPorts is the number of port module copies on the FPGA (Section
// III-B).
const MaxPorts = 9

var errNoPorts = fmt.Errorf("core: out of port IDs (max %d per system)", MaxPorts)

func (s *System) nextPortID() int {
	id := s.portsMade
	if id >= MaxPorts {
		panic(errNoPorts)
	}
	s.portsMade++
	return id
}
