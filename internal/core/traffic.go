package core

import (
	"fmt"

	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// TrafficRunSpec configures a synthetic-traffic measurement run: Ports
// identical traffic ports, each driving an independent compiled copy of
// the same traffic.Spec (per-port seeds derive from the system seed,
// so ports decorrelate but the whole run replays from one seed).
type TrafficRunSpec struct {
	Ports   int          // active ports, 1..9
	Size    int          // request size in bytes
	Traffic traffic.Spec // pattern, mix, discipline, phases
	Warmup  sim.Time     // traffic before counters reset
	Window  sim.Time     // measurement window after warm-up
}

// RunTraffic performs one synthetic-traffic experiment on a fresh set
// of ports through the same runPorts as RunGUPS (warm-up, counter
// reset, sampled cube occupancy, aggregate monitors). Unlike RunGUPS it returns an
// error instead of panicking on a bad spec, because traffic specs
// arrive from CLI flags and daemon submissions, not just code.
func (s *System) RunTraffic(spec TrafficRunSpec) (Result, error) {
	if spec.Ports <= 0 || spec.Ports > MaxPorts {
		return Result{}, fmt.Errorf("core: %d ports out of range [1, %d]", spec.Ports, MaxPorts)
	}
	if spec.Window <= 0 {
		return Result{}, fmt.Errorf("core: traffic window must be positive")
	}
	gens := make([]*traffic.Gen, spec.Ports)
	for i := range gens {
		var err error
		if gens[i], err = traffic.Compile(spec.Traffic, spec.Size, s.portSeed(i)); err != nil {
			return Result{}, err
		}
	}
	return s.runPorts(gens, spec.Size, 0, spec.Warmup, spec.Window), nil
}
