package main

import (
	"runtime"
	"time"

	"hmcsim/internal/dram"
	"hmcsim/internal/link"
	"hmcsim/internal/noc"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
	"hmcsim/internal/vault"
)

// Drivers time one layer at a time through its public API, outside any
// system, so a change to that layer shows in its own number even when
// the workloads' end-to-end figures hide it. Each runs driverRounds
// rounds of a fixed operation count after one warm-up round; its metric
// is the median per-operation time.
const driverRounds = 3

type driver struct {
	name   string // span name and metric prefix
	ops    int    // operations per round
	allocs bool   // also report allocations per operation
	// prepare builds fresh state and returns the operation to repeat.
	prepare func() func(i int)
}

var drivers = []driver{
	{name: "sim.schedule_fire", ops: 1 << 20, allocs: true, prepare: scheduleFire},
	{name: "link.send", ops: 1 << 17, prepare: linkSend},
	{name: "noc.hop", ops: 1 << 17, prepare: nocHop},
	{name: "vault.accept_respond", ops: 1 << 16, prepare: vaultAcceptRespond},
	{name: "dram.access", ops: 1 << 20, prepare: dramAccess},
	{name: "traffic.next", ops: 1 << 20, allocs: true, prepare: trafficNext},
}

// runDrivers runs every driver and adds their samples to the traced
// phase's.
func runDrivers(b *bench, samples map[string][]float64) {
	for _, d := range drivers {
		op := d.prepare()
		for i := 0; i < d.ops; i++ {
			op(i)
		}
		for r := 0; r < driverRounds; r++ {
			id := b.tr.begin("driver."+d.name, 0, -1)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < d.ops; i++ {
				op(i)
			}
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			b.tr.end(id)
			samples[d.name+"_ns"] = append(samples[d.name+"_ns"], float64(el.Nanoseconds())/float64(d.ops))
			if d.allocs {
				samples[d.name+"_allocs"] = append(samples[d.name+"_allocs"], float64(m1.Mallocs-m0.Mallocs)/float64(d.ops))
			}
		}
	}
}

// scheduleFire is one Engine.Schedule plus one Step against 4096
// pending events, the kernel's innermost loop.
func scheduleFire() func(int) {
	const pending = 4096
	eng := sim.NewEngine()
	fn := func() {}
	for i := 0; i < pending; i++ {
		eng.Schedule(sim.Time(i), fn)
	}
	return func(i int) {
		eng.Schedule(sim.Time(pending+i%pending), fn)
		eng.Step()
	}
}

// linkSend is one link.Dir.TrySend of a 64 B write (5 flits) drained
// through serialization and the wire to its delivery.
func linkSend() func(int) {
	eng := sim.NewEngine()
	var dir *link.Dir
	dir = link.NewDir(eng, "bench", link.DefaultConfig(), func(p *packet.Packet) { dir.Release(p.Flits()) })
	tr := &packet.Transaction{Write: true, Size: 64}
	p := tr.RequestPacket(0)
	return func(int) {
		if !dir.TrySend(p) {
			panic("link driver: no tokens after a drain")
		}
		eng.Drain()
	}
}

// nocHop is one noc.Router.TryOut of a read response (5 flits) drained
// through serialization and the hop into an always-ready outlet.
func nocHop() func(int) {
	eng := sim.NewEngine()
	sink := noc.FuncOutlet{
		Try:    func(*noc.Message) bool { return true },
		Notify: func(*noc.Message, func()) {},
	}
	r := noc.NewRouter(eng, "bench", noc.DefaultConfig(), func(*noc.Message) int { return 0 }, []noc.Outlet{sink})
	tr := &packet.Transaction{Size: 64}
	m := &noc.Message{Tr: tr, Pkt: tr.ResponsePacket(0)}
	return func(int) {
		if !r.TryOut(m) {
			panic("noc driver: no credit after a drain")
		}
		eng.Drain()
	}
}

// vaultAcceptRespond is one transaction from Vault.TryAccept to its
// response leaving the vault, in batches of 256 reads spread over all
// banks; bank queues are deep enough that no admission is refused.
func vaultAcceptRespond() func(int) {
	const batch = 256
	eng := sim.NewEngine()
	cfg := vault.DefaultConfig(0)
	cfg.BankQueueDepth = batch
	v := vault.New(eng, cfg, respSink{})
	trs := make([]packet.Transaction, batch)
	for k := range trs {
		trs[k] = packet.Transaction{Size: 64, Bank: k % cfg.Banks, Row: uint64(k)}
	}
	return func(i int) {
		if !v.TryAccept(&trs[i%batch]) {
			panic("vault driver: admission refused")
		}
		if i%batch == batch-1 {
			eng.Drain()
		}
	}
}

// respSink is a response outlet that is always ready.
type respSink struct{}

func (respSink) TryOut(*packet.Transaction) bool       { return true }
func (respSink) NotifyOut(*packet.Transaction, func()) {}

// dramAccess is one closed-page Bank.Access issued as soon as the bank
// is ready.
func dramAccess() func(int) {
	b := dram.NewBank(dram.DefaultTiming(), dram.ClosedPage)
	var now sim.Time
	return func(i int) {
		_, now = b.Access(now, uint64(i), 64)
	}
}

// trafficNext is one Gen.Next of the traffic-rw spec.
func trafficNext() func(int) {
	g, err := traffic.Compile(trafficRW, 64, 1)
	if err != nil {
		panic(err) // trafficRW is a constant spec that compiles
	}
	return func(int) { g.Next() }
}
