// Package hmcsim is the public API of the HMC reproduction: a
// cycle-level model of the AC-510 (FPGA host + HMC 1.1 cube) system of
// "Performance Implications of NoCs on 3D-Stacked Memories: Insights
// from the Hybrid Memory Cube" (ISPASS 2018).
//
// The package is organized around two seams:
//
//   - Runner: a named, self-describing experiment returning a
//     structured, JSON-marshalable Result. The paper's tables and
//     figures register themselves in internal/exp's registry.
//   - Spec: a serializable, content-addressable experiment request. Its
//     canonical JSON hash is how the hmcsimd service (cmd/hmcsimd,
//     internal/service) caches results.
//
// A System runs the paper's two firmware personalities through the
// methods of core.System, which it aliases: RunGUPS (GUPSSpec, Figure 5a)
// and PlayStreams (one finite trace per port, Figure 5b). RunTraffic
// (TrafficRunSpec) drives a composable synthetic TrafficSpec from
// internal/traffic: pattern library, read/write mixer, phase scripts,
// and closed- or open-loop injection. RunGUPS and RunTraffic return
// what the monitoring logic reports; PlayStreams returns the ports,
// whose Mon fields hold each port's counts and latencies.
//
// Sweep fans independent simulations out across CPUs; every engine
// stays single-threaded, so parallel results are bit-identical to
// sequential ones. Sweeps observe a context.Context between points, so
// abandoned runs stop scheduling work.
//
// Quickstart:
//
//	sys := hmcsim.NewSystem(hmcsim.DefaultConfig())
//	r := sys.RunGUPS(hmcsim.GUPSSpec{
//	    Ports: 9, Size: 128, Pattern: hmcsim.AllVaults.Build(sys),
//	    Warmup: 30 * hmcsim.Microsecond, Window: 100 * hmcsim.Microsecond,
//	})
//	fmt.Println(r.Bandwidth.GBpsValue(), r.AvgLat.Nanoseconds())
package hmcsim

import (
	"context"

	"hmcsim/internal/core"
	"hmcsim/internal/host"
	"hmcsim/internal/sim"
)

// Time is simulated time in integer picoseconds, re-exported from the
// simulation kernel.
type Time = sim.Time

// Durations for building warm-up and measurement windows.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
)

// Config assembles a full system; DefaultConfig is the paper's AC-510 +
// 4 GB HMC 1.1 setup.
type Config = core.Config

// Request is one trace entry: an address, a size, and a direction.
type Request = host.Request

// DefaultConfig returns the paper's system configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// System is an assembled simulation: engine, cube, controller and
// address mapping. It aliases core.System, whose RunGUPS, RunTraffic
// and PlayStreams are how every workload runs, and whose helpers
// (Vaults, Banks, SingleVault, RandomTrace) shape their addresses.
type System = core.System

// GUPSSpec configures System.RunGUPS: the GUPS firmware's ports,
// request size, address pattern (PatternSpec.Build), and warm-up and
// measurement windows.
type GUPSSpec = core.GUPSSpec

// TrafficRunSpec configures System.RunTraffic: Ports identical ports
// each driving its own compiled copy of one TrafficSpec.
type TrafficRunSpec = core.TrafficRunSpec

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) *System { return core.NewSystem(cfg) }

// Options tune how much work experiments do. The zero value is the full
// paper-fidelity configuration.
type Options struct {
	// Quick cuts windows and sample counts for use inside tests and
	// benchmarks.
	Quick bool `json:"quick"`
	// Seed perturbs all workload RNGs (0 keeps the config default),
	// letting callers check that conclusions are seed-stable.
	Seed uint64 `json:"seed"`
	// Traffic carries a synthetic traffic spec for the experiments that
	// consume one (the generic "traffic" runner); nil runs their
	// defaults. It is omitted from JSON when nil, so specs predating
	// the traffic subsystem keep their cache keys.
	Traffic *TrafficSpec `json:"traffic,omitempty"`
	// Workers bounds Sweep fan-out: 0 means runtime.NumCPU(), 1 forces
	// sequential execution. Excluded from JSON because it must never
	// change results, only wall-clock time.
	Workers int `json:"-"`
}

// Validate rejects option values that cannot run: currently a traffic
// spec naming an unknown pattern or out-of-range parameters. The CLI
// and the hmcsimd submit path both call it, so the same helpful error
// (listing the valid pattern names) appears locally and as HTTP 400.
func (o Options) Validate() error {
	if o.Traffic != nil {
		return o.Traffic.Validate()
	}
	return nil
}

// checkpointEvery is how many retired events pass between engine
// checkpoints in systems built by NewSystemCtx. Large enough that the
// countdown branch is noise in the event loop, small enough that
// cancellation lands within a few hundred microseconds of wall clock.
// It matches the engine's own default cadence.
const checkpointEvery = sim.DefaultCheckpointEvery

// NewSystemCtx builds a default system with the option seed applied,
// wired to ctx:
//
//   - If ctx can be cancelled, the engine checks it at periodic
//     checkpoints in its event loop, so Run and Drain return early
//     (mid-simulation, deterministically up to that point) once the
//     context is done.
//   - If ctx carries a WithProgress sink, the same checkpoints report
//     simulation headway (events retired, simulated time advanced).
//   - If ctx carries a WithTrace collector, the system is assembled
//     with per-component tracers feeding that collector, which keep
//     both run totals and activity over simulated time.
//
// A background context with no sink and no collector yields a system
// identical to NewSystem(DefaultConfig()) with that seed, with zero
// checkpoint overhead.
func (o Options) NewSystemCtx(ctx context.Context) *System {
	cfg := DefaultConfig()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if tc := collectorFrom(ctx); tc != nil {
		cfg.Trace = tc.col.NewSystem()
	}
	sys := NewSystem(cfg)
	attachCheckpoint(ctx, sys.Eng)
	return sys
}

// NewEngineCtx builds a bare engine wired to ctx's cancellation and
// progress sink as NewSystemCtx wires its system's engine; experiments
// that model a device other than the cube (the DDR baseline) run on it.
func (o Options) NewEngineCtx(ctx context.Context) *sim.Engine {
	eng := sim.NewEngine()
	attachCheckpoint(ctx, eng)
	return eng
}

// attachCheckpoint wires an engine's event-loop checkpoint to ctx: the
// engine stops early once ctx is done, and reports simulation headway
// to the ctx progress sink if one is attached. A background context
// with no sink leaves the engine checkpoint-free.
func attachCheckpoint(ctx context.Context, eng *sim.Engine) {
	sink := sinkFrom(ctx)
	if sink == nil && ctx.Done() == nil {
		return
	}
	var lastEvents uint64
	var lastNow Time
	eng.SetCheckpoint(checkpointEvery, func() bool {
		if sink != nil {
			ev, now := eng.Fired(), eng.Now()
			sink.engineTick(ev-lastEvents, int64(now-lastNow))
			lastEvents, lastNow = ev, now
		}
		return ctx.Err() == nil
	})
}

// Warmup returns the traffic time before counters reset.
func (o Options) Warmup() Time {
	if o.Quick {
		return 15 * Microsecond
	}
	return 30 * Microsecond
}

// Window returns the measurement window after warm-up.
func (o Options) Window() Time {
	if o.Quick {
		return 40 * Microsecond
	}
	return 120 * Microsecond
}

// PatternSpec names an address-restriction pattern structurally, so it
// can be declared before any System exists. The zero value (no banks,
// no vaults) is the unrestricted whole-cube pattern.
type PatternSpec struct {
	Name   string `json:"name"`
	Banks  int    `json:"banks,omitempty"`  // >0: confined to this many banks of vault 0
	Vaults int    `json:"vaults,omitempty"` // >0: confined to the first n vaults
}

// AllVaults is the unrestricted pattern: random over the whole cube.
var AllVaults = PatternSpec{Name: "16 vaults"}

// Patterns is the pattern sweep of the paper's Figures 6 and 13: banks
// within vault 0, then vault groups.
var Patterns = []PatternSpec{
	{Name: "1 bank", Banks: 1},
	{Name: "2 banks", Banks: 2},
	{Name: "4 banks", Banks: 4},
	{Name: "8 banks", Banks: 8},
	{Name: "1 vault", Vaults: 1},
	{Name: "2 vaults", Vaults: 2},
	{Name: "4 vaults", Vaults: 4},
	{Name: "8 vaults", Vaults: 8},
	{Name: "16 vaults", Vaults: 16},
}

// Build materializes the pattern against a system's address mapping.
func (p PatternSpec) Build(sys *System) core.Pattern {
	switch {
	case p.Banks > 0:
		pat := sys.Banks(p.Banks)
		if p.Name != "" {
			pat.Name = p.Name
		}
		return pat
	case p.Vaults > 0:
		pat := sys.Vaults(p.Vaults)
		if p.Name != "" {
			pat.Name = p.Name
		}
		return pat
	}
	pat := core.AllVaults()
	if p.Name != "" {
		pat.Name = p.Name
	}
	return pat
}
