// Package hmcsim is the public API of the HMC reproduction: a
// cycle-level model of the AC-510 (FPGA host + HMC 1.1 cube) system of
// "Performance Implications of NoCs on 3D-Stacked Memories: Insights
// from the Hybrid Memory Cube" (ISPASS 2018).
//
// The package is organized around three seams:
//
//   - Backend: an attachable memory device under test. HMCDevice and
//     DDRChannel implement it, so device comparisons are plain sweeps.
//   - Runner: a named, self-describing experiment returning a
//     structured, JSON-marshalable Result. The paper's tables and
//     figures register themselves in internal/exp's registry.
//   - Spec: a serializable, content-addressable experiment request. Its
//     canonical JSON hash is how the hmcsimd service (cmd/hmcsimd,
//     internal/service) caches results.
//
// The workloads are plain structs whose Run drives a System's port
// fabric and reports what the monitors saw: GUPS, Streams and
// TraceReplay adapt the paper's two firmware personalities;
// TrafficWorkload drives a composable synthetic TrafficSpec (pattern
// library, read/write mixer, phase scripts, closed- or open-loop
// injection) from internal/traffic.
//
// Sweep fans independent simulations out across CPUs; every engine
// stays single-threaded, so parallel results are bit-identical to
// sequential ones. Sweeps observe a context.Context between points, so
// abandoned runs stop scheduling work.
//
// Quickstart:
//
//	sys := hmcsim.NewSystem(hmcsim.DefaultConfig())
//	m := hmcsim.GUPS{
//	    Ports: 9, Size: 128, Pattern: hmcsim.AllVaults,
//	    Warmup: 30 * hmcsim.Microsecond, Window: 100 * hmcsim.Microsecond,
//	}.Run(sys)
//	fmt.Println(m.GBps, m.AvgLatNs)
package hmcsim

import (
	"context"
	"fmt"

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
// address mapping. It embeds the core engine, so all low-level drivers
// (RunGUPS, PlayStreams, RandomTrace, ...) remain reachable.
type System struct {
	*core.System
}

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) *System { return &System{core.NewSystem(cfg)} }

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

// NewSystem builds a default system with the option seed applied.
func (o Options) NewSystem() *System {
	cfg := DefaultConfig()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return NewSystem(cfg)
}

// checkpointEvery is how many retired events pass between engine
// checkpoints in systems built by NewSystemCtx. Large enough that the
// countdown branch is noise in the event loop, small enough that
// cancellation lands within a few hundred microseconds of wall clock.
// It matches the engine's own default cadence.
const checkpointEvery = sim.DefaultCheckpointEvery

// NewSystemCtx builds a system like NewSystem but wired to ctx:
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
// identical to NewSystem, with zero checkpoint overhead.
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

// String returns the pattern's display name.
func (p PatternSpec) String() string {
	if p.Name != "" {
		return p.Name
	}
	switch {
	case p.Banks > 0:
		return fmt.Sprintf("%d banks", p.Banks)
	case p.Vaults > 0:
		return fmt.Sprintf("%d vaults", p.Vaults)
	}
	return "16 vaults"
}
