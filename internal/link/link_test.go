package link

import (
	"testing"

	"hmcsim/internal/packet"
	"hmcsim/internal/phys"
	"hmcsim/internal/sim"
)

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.WireLatency = 10 * sim.Nanosecond
	return cfg
}

func TestConfigBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.Bandwidth().GBpsValue(); got != 15 {
		t.Fatalf("half-width 15Gbps bandwidth = %v GB/s, want 15", got)
	}
	// One flit at 15 GB/s is ~1067 ps.
	ft := cfg.FlitTime()
	if ft < 1066 || ft > 1068 {
		t.Fatalf("flit time = %dps, want ~1067", ft)
	}
}

func TestPeakBandwidthEquation(t *testing.T) {
	// Equation 1: 2 links x 8 lanes x 15 Gbps x 2 duplex = 60 GB/s.
	got := phys.PeakBidirectional(2, 8, phys.Gbps(15))
	if got.GBpsValue() != 60 {
		t.Fatalf("Equation 1 = %v GB/s, want 60", got.GBpsValue())
	}
}

func TestDirDeliversAfterSerializationAndWire(t *testing.T) {
	eng := sim.NewEngine()
	var deliveredAt sim.Time
	d := NewDir(eng, "t", testCfg(), func(p *packet.Packet) { deliveredAt = eng.Now() })
	p := &packet.Packet{Cmd: packet.CmdReadResp, Size: 128} // 9 flits
	eng.Schedule(0, func() {
		if !d.TrySend(p) {
			t.Error("send rejected on idle link")
		}
	})
	eng.Drain()
	// 9 flits x 1067ps = 9603ps, + 10ns wire.
	want := 9*testCfg().FlitTime() + 10*sim.Nanosecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestDirSerializesBackToBack(t *testing.T) {
	eng := sim.NewEngine()
	var times []sim.Time
	d := NewDir(eng, "t", testCfg(), func(p *packet.Packet) { times = append(times, eng.Now()) })
	eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			d.TrySend(&packet.Packet{Cmd: packet.CmdRead, Size: 16}) // 1 flit each
		}
	})
	eng.Drain()
	if len(times) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(times))
	}
	ft := testCfg().FlitTime()
	for i, at := range times {
		want := sim.Time(i+1)*ft + 10*sim.Nanosecond
		if at != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
}

func TestDirTokenBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.RxBufFlits = 10
	var got []*packet.Packet
	d := NewDir(eng, "t", cfg, func(p *packet.Packet) { got = append(got, p) })
	big := &packet.Packet{Cmd: packet.CmdReadResp, Size: 128}  // 9 flits
	small := &packet.Packet{Cmd: packet.CmdReadResp, Size: 32} // 3 flits
	eng.Schedule(0, func() {
		if !d.TrySend(big) {
			t.Error("first send rejected")
		}
		if d.TrySend(small) {
			t.Error("send accepted beyond rx buffer")
		}
		// Register retry; release tokens later as the receiver drains.
		d.NotifyTokens(func() {
			if !d.TrySend(small) {
				t.Error("send rejected after token release")
			}
		})
	})
	eng.Schedule(100*sim.Nanosecond, func() { d.Release(big.Flits()) })
	eng.Drain()
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
}

func TestDirRetryOnError(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.ErrorRate = 1.0 // first attempts always fail...
	delivered := 0
	d := NewDir(eng, "t", cfg, func(p *packet.Packet) { delivered++ })
	eng.Schedule(0, func() {
		d.TrySend(&packet.Packet{Cmd: packet.CmdRead, Size: 16})
	})
	// ...so flip to a clean channel after the first corruption.
	eng.Schedule(2*sim.Nanosecond, func() { d.cfg.ErrorRate = 0 })
	eng.Drain()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 after retry", delivered)
	}
	if d.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", d.Retries())
	}
}

func TestDirRetryPreservesOrderEventually(t *testing.T) {
	// With a noisy channel every packet still arrives exactly once.
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.ErrorRate = 0.3
	cfg.Seed = 99
	seen := map[uint16]int{}
	d := NewDir(eng, "t", cfg, func(p *packet.Packet) { seen[p.Tag]++ })
	eng.Schedule(0, func() {
		for i := 0; i < 50; i++ {
			tag := uint16(i)
			send := func() {}
			send = func() {
				if !d.TrySend(&packet.Packet{Cmd: packet.CmdRead, Size: 16, Tag: tag}) {
					d.NotifyTokens(send)
				}
			}
			send()
		}
	})
	// Drain receiver continuously so tokens recycle.
	eng.Drain()
	if len(seen) != 50 {
		t.Fatalf("saw %d distinct packets, want 50", len(seen))
	}
	for tag, n := range seen {
		if n != 1 {
			t.Fatalf("tag %d delivered %d times", tag, n)
		}
	}
	if d.Retries() == 0 {
		t.Fatal("noisy link produced no retries")
	}
}

func TestDirStats(t *testing.T) {
	eng := sim.NewEngine()
	var d *Dir
	d = NewDir(eng, "t", testCfg(), func(p *packet.Packet) { d.Release(p.Flits()) })
	eng.Schedule(0, func() {
		d.TrySend(&packet.Packet{Cmd: packet.CmdReadResp, Size: 64}) // 5 flits
		d.TrySend(&packet.Packet{Cmd: packet.CmdRead, Size: 16})     // 1 flit
	})
	eng.Drain()
	if d.Packets() != 2 || d.Flits() != 6 {
		t.Fatalf("packets/flits = %d/%d, want 2/6", d.Packets(), d.Flits())
	}
	if d.Bytes() != 96 {
		t.Fatalf("bytes = %d, want 96", d.Bytes())
	}
	if d.TokensAvailable() != testCfg().RxBufFlits {
		t.Fatalf("tokens not fully recycled: %d", d.TokensAvailable())
	}
}

func TestLinkFullDuplex(t *testing.T) {
	eng := sim.NewEngine()
	var reqAt, respAt sim.Time
	req := NewDir(eng, "link0.req", testCfg(), func(p *packet.Packet) { reqAt = eng.Now() })
	resp := NewDir(eng, "link0.resp", testCfg(), func(p *packet.Packet) { respAt = eng.Now() })
	eng.Schedule(0, func() {
		req.TrySend(&packet.Packet{Cmd: packet.CmdRead, Size: 128})
		resp.TrySend(&packet.Packet{Cmd: packet.CmdReadResp, Size: 128})
	})
	eng.Drain()
	// Directions do not contend: the 1-flit request and the 9-flit
	// response serialize concurrently.
	ft := testCfg().FlitTime()
	if reqAt != ft+10*sim.Nanosecond {
		t.Fatalf("request delivered at %v, want %v", reqAt, ft+10*sim.Nanosecond)
	}
	if respAt != 9*ft+10*sim.Nanosecond {
		t.Fatalf("response delivered at %v, want %v", respAt, 9*ft+10*sim.Nanosecond)
	}
}

func TestDirUtilization(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDir(eng, "t", testCfg(), func(p *packet.Packet) {})
	eng.Schedule(0, func() {
		d.TrySend(&packet.Packet{Cmd: packet.CmdReadResp, Size: 128}) // 9 flits
	})
	eng.Drain()
	busy := 9 * testCfg().FlitTime()
	total := eng.Now()
	got := d.Utilization(total)
	want := float64(busy) / float64(total)
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("utilization = %v, want ~%v", got, want)
	}
}
