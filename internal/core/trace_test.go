package core

import (
	"runtime"
	"testing"

	"hmcsim/internal/obs"
)

// TestDroppedTracedSystemsAreCollected builds 50 traced quick GUPS
// systems under one collector and drops them. The collector outlives
// them, but it must keep only their tracers, each with its timeline
// (about 60 KB), and not the systems: a tracer clock that read the
// engine kept each engine, and through its pending events the whole
// system, some 300 KB apiece.
func TestDroppedTracedSystemsAreCollected(t *testing.T) {
	const systems = 50
	var col obs.Collector
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	for i := 0; i < systems; i++ {
		cfg := DefaultConfig()
		cfg.Trace = col.NewSystem()
		sys := NewSystem(cfg)
		spec := quickSpec(sys, 128, AllVaults())
		spec.Ports = 2
		sys.RunGUPS(spec)
	}
	perSystem := (live() - before) / systems
	if col.Systems() != systems {
		t.Fatalf("%d systems registered, want %d", col.Systems(), systems)
	}
	if perSystem > 100<<10 {
		t.Fatalf("%d KB live per dropped traced system, want at most 100 KB", perSystem>>10)
	}
}
