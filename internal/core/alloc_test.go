package core

import (
	"testing"

	"hmcsim/internal/host"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// TestSystemSteadyStateDoesNotAllocate holds whole systems to the
// promise that a steady-state memory access allocates nothing: after a
// warm-up has grown every free list, queue and tag pool to its working
// size, 50 us more of simulation must not allocate. The warm-up is long
// because free lists keep reaching new high-water marks until about
// 110 us on traffic-rw's zipf bursts and 160 us on gups-bank-mix; the
// window is long because a 2 us one misses an allocation on a path
// taken only every few microseconds, such as one in every 4,096
// requests sent. The three setups are saturated 128 B GUPS over all
// vaults (the benchmark's gups-spread), bank-bound GUPS over 2 banks
// mixing reads and writes, whose requests park for link tokens and
// whose writes fail send attempts, and the benchmark's traffic-rw
// ports: open-loop zipf traffic with writes. On saturated GUPS the host
// controller's jobs ring, where packet-engine completions wait their
// turn to be queued, runs at its high-water mark.
func TestSystemSteadyStateDoesNotAllocate(t *testing.T) {
	gups := func(kind traffic.RequestKind, banks int) func(*testing.T, *System) {
		return func(_ *testing.T, sys *System) {
			pat := AllVaults()
			if banks > 0 {
				pat = sys.Banks(banks)
			}
			for i := 0; i < MaxPorts; i++ {
				id := sys.nextPortID()
				gen := traffic.GUPS(pat.Mask, 128, sys.portSeed(i)+uint64(id)*0x9E3779B9+1, false, kind)
				host.NewTrafficPort(sys.Eng, sys.Cfg.Host, sys.Ctrl, sys.Map, id, host.TrafficConfig{Size: 128, Gen: gen}).Start()
			}
		}
	}
	trafficRW := func(t *testing.T, sys *System) {
		spec := traffic.Spec{
			Pattern: traffic.PatternZipf, ZipfTheta: 0.9, WriteFraction: 0.3, MixRunLength: 4,
			Discipline: traffic.DisciplineOpen, RateGBps: 1.5,
		}
		for i := 0; i < MaxPorts; i++ {
			gen, err := traffic.Compile(spec, 64, sys.portSeed(i))
			if err != nil {
				t.Fatal(err)
			}
			host.NewTrafficPort(sys.Eng, sys.Cfg.Host, sys.Ctrl, sys.Map, sys.nextPortID(), host.TrafficConfig{Size: 64, Gen: gen}).Start()
		}
	}
	for _, c := range []struct {
		name  string
		start func(*testing.T, *System)
	}{
		{"gups-spread", gups(traffic.ReadOnly, 0)},
		{"gups-bank-mix", gups(traffic.ReadWriteMix, 2)},
		{"traffic-rw", trafficRW},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := NewSystem(DefaultConfig())
			c.start(t, sys)
			// AllocsPerRun makes one unmeasured call of its own first,
			// so the measured window is 200-250 us.
			sys.Eng.Run(150 * sim.Microsecond)
			fired := sys.Eng.Fired()
			allocs := testing.AllocsPerRun(1, func() { sys.Eng.Run(sys.Eng.Now() + 50*sim.Microsecond) })
			if sys.Eng.Fired() == fired {
				t.Fatal("no events fired after warm-up")
			}
			if allocs != 0 {
				t.Fatalf("%v allocations in 50 us of steady state, want 0", allocs)
			}
		})
	}
}
