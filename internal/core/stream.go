package core

import (
	"fmt"

	"hmcsim/internal/addr"
	"hmcsim/internal/host"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// StreamPorts returns n trace-driven ports, creating them on first use.
// The same ports are reused across PlayStreams calls, mirroring how the
// multi-port stream firmware replays many traces without reconfiguring
// the FPGA.
func (s *System) StreamPorts(n int) []*host.StreamPort {
	if n <= 0 || n > MaxPorts {
		panic(fmt.Sprintf("core: %d stream ports out of range", n))
	}
	for len(s.streamPorts) < n {
		p := host.NewStreamPort(s.Eng, s.Cfg.Host, s.Ctrl, s.Map, s.nextPortID())
		s.streamPorts = append(s.streamPorts, p)
	}
	return s.streamPorts[:n]
}

// PlayStreams plays one trace per port simultaneously and runs the
// simulation until every port has drained. Monitors are reset at the
// start, so each call is an independent measurement.
func (s *System) PlayStreams(traces [][]host.Request) []*host.StreamPort {
	s.startTraceClock()
	defer s.stopTraceClock()
	ports := s.StreamPorts(len(traces))
	for i, p := range ports {
		p.Mon.Reset(s.Eng.Now())
		p.Play(traces[i])
	}
	s.Eng.Drain()
	for _, p := range ports {
		if p.Busy() {
			panic("core: stream port still busy after drain")
		}
	}
	return ports
}

// RandomTrace builds n random read requests of the given size confined to
// the pattern: the first n addresses of traffic.GUPS's random law on it,
// seeded with seed.
func (s *System) RandomTrace(n, size int, pattern Pattern, seed uint64) []host.Request {
	gen := traffic.GUPS(pattern.Mask, size, seed, false, traffic.ReadOnly)
	reqs := make([]host.Request, n)
	for i := range reqs {
		a, _ := gen.Next()
		reqs[i] = host.Request{Addr: a, Size: size}
	}
	return reqs
}

// RandomTraceVaults builds n random read requests spread uniformly over
// an arbitrary set of vaults (not necessarily a power-of-two group),
// as the four-vault combination study of Section IV-D requires.
func (s *System) RandomTraceVaults(n, size int, vaults []int, seed uint64) []host.Request {
	rng := sim.NewRand(seed)
	masks := make([]addr.Mask, len(vaults))
	for i, v := range vaults {
		m, err := s.Map.SingleVaultMask(v)
		if err != nil {
			panic(err)
		}
		masks[i] = m
	}
	reqs := make([]host.Request, n)
	for i := range reqs {
		m := masks[rng.Intn(len(masks))]
		a := m.Apply(rng.Uint64()&(addr.CubeBytes-1)) &^ uint64(size-1)
		reqs[i] = host.Request{Addr: a, Size: size}
	}
	return reqs
}
