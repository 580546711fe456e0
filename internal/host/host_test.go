package host

import (
	"testing"

	"hmcsim/internal/addr"
	"hmcsim/internal/hmc"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// rig wires a real cube behind a controller for integration-style tests.
type rig struct {
	eng  *sim.Engine
	cube *hmc.HMC
	ctrl *Controller
	mapp *addr.Mapping
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), mapp: addr.MustMapping(128)}
	var ctrl *Controller
	r.cube = hmc.New(r.eng, hmc.DefaultConfig(), func(p *packet.Packet) { ctrl.OnResponse(p) })
	ctrl = NewController(r.eng, DefaultConfig(), r.cube)
	r.ctrl = ctrl
	return r
}

// gupsConfig configures a GUPS port: random size-byte requests of the
// given kind, confined to mask and drawn from an RNG seeded with seed.
func gupsConfig(size int, kind traffic.RequestKind, mask addr.Mask, seed uint64) TrafficConfig {
	return TrafficConfig{Size: size, Gen: traffic.GUPS(mask, size, seed, false, kind)}
}

func TestGUPSPortIssuesAndCompletes(t *testing.T) {
	r := newRig(t)
	p := NewTrafficPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0, gupsConfig(32, traffic.ReadOnly, addr.AllAccess, 6))
	r.eng.Schedule(0, func() { p.Start() })
	r.eng.Schedule(20*sim.Microsecond, func() { p.Stop() })
	r.eng.Drain()
	if p.Mon.Reads == 0 {
		t.Fatal("no reads completed")
	}
	if p.Outstanding() != 0 {
		t.Fatalf("%d requests still outstanding after drain", p.Outstanding())
	}
	if p.Mon.MinLat <= 0 || p.Mon.MaxLat < p.Mon.MinLat {
		t.Fatalf("latency stats inconsistent: min=%v max=%v", p.Mon.MinLat, p.Mon.MaxLat)
	}
	if p.Mon.AvgLat() < p.Mon.MinLat || p.Mon.AvgLat() > p.Mon.MaxLat {
		t.Fatalf("avg %v outside [min,max]", p.Mon.AvgLat())
	}
}

func TestGUPSTagPoolBoundsOutstanding(t *testing.T) {
	r := newRig(t)
	gups := gupsConfig(16, traffic.ReadOnly, addr.AllAccess, 2)
	gups.Tags = 8
	p := NewTrafficPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0, gups)
	maxOut := 0
	r.eng.Schedule(0, func() { p.Start() })
	var watch func()
	watch = func() {
		if o := p.Outstanding(); o > maxOut {
			maxOut = o
		}
		if r.eng.Now() < 10*sim.Microsecond {
			r.eng.Schedule(100*sim.Nanosecond, watch)
		} else {
			p.Stop()
		}
	}
	r.eng.Schedule(0, watch)
	r.eng.Drain()
	if maxOut > 8 {
		t.Fatalf("outstanding peaked at %d with 8 tags", maxOut)
	}
	if maxOut < 8 {
		t.Fatalf("outstanding peaked at %d; pool never saturated", maxOut)
	}
}

func TestGUPSIssueRateOnePerCycle(t *testing.T) {
	// With abundant tags, a port issues at most one request per FPGA
	// cycle.
	r := newRig(t)
	cfg := DefaultConfig()
	gups := gupsConfig(16, traffic.ReadOnly, addr.AllAccess, 2)
	gups.Tags = 4096
	p := NewTrafficPort(r.eng, cfg, r.ctrl, r.mapp, 0, gups)
	r.eng.Schedule(0, func() { p.Start() })
	window := 10 * sim.Microsecond
	r.eng.Run(window)
	p.Stop()
	r.eng.Drain()
	cycles := uint64(window / cfg.Clock().Period)
	if p.Issued() > cycles+1 {
		t.Fatalf("issued %d in %d cycles", p.Issued(), cycles)
	}
	if p.Issued() < cycles/2 {
		t.Fatalf("issued only %d in %d cycles", p.Issued(), cycles)
	}
}

func TestGUPSMaskConfinesTraffic(t *testing.T) {
	r := newRig(t)
	mask, err := r.mapp.BanksMask(2)
	if err != nil {
		t.Fatal(err)
	}
	p := NewTrafficPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0, gupsConfig(64, traffic.ReadOnly, mask, 4))
	banks := map[int]bool{}
	p.Mon.OnComplete = func(tr *packet.Transaction) {
		if tr.Vault != 0 {
			t.Errorf("masked access reached vault %d", tr.Vault)
		}
		banks[tr.Bank] = true
	}
	r.eng.Schedule(0, func() { p.Start() })
	r.eng.Schedule(20*sim.Microsecond, func() { p.Stop() })
	r.eng.Drain()
	if len(banks) != 2 {
		t.Fatalf("reached %d banks, want 2", len(banks))
	}
}

func TestGUPSWriteOnlyUsesRequestDirection(t *testing.T) {
	r := newRig(t)
	p := NewTrafficPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0, gupsConfig(128, traffic.WriteOnly, addr.AllAccess, 3))
	r.eng.Schedule(0, func() { p.Start() })
	r.eng.Schedule(10*sim.Microsecond, func() { p.Stop() })
	r.eng.Drain()
	if p.Mon.Writes == 0 || p.Mon.Reads != 0 {
		t.Fatalf("reads/writes = %d/%d, want only writes", p.Mon.Reads, p.Mon.Writes)
	}
	tx := r.cube.Link(0).Req.Flits() + r.cube.Link(1).Req.Flits()
	rx := r.cube.Link(0).Resp.Flits() + r.cube.Link(1).Resp.Flits()
	if tx < 8*rx {
		t.Fatalf("write traffic tx/rx flits = %d/%d; expected strong asymmetry", tx, rx)
	}
}

func TestGUPSReadWriteMix(t *testing.T) {
	r := newRig(t)
	p := NewTrafficPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0, gupsConfig(64, traffic.ReadWriteMix, addr.AllAccess, 3))
	r.eng.Schedule(0, func() { p.Start() })
	r.eng.Schedule(20*sim.Microsecond, func() { p.Stop() })
	r.eng.Drain()
	ratio := float64(p.Mon.Reads) / float64(p.Mon.Reads+p.Mon.Writes)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("read fraction = %v, want ~0.5", ratio)
	}
}

func TestGUPSLinearMode(t *testing.T) {
	r := newRig(t)
	p := NewTrafficPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0, TrafficConfig{
		Size: 128, Gen: traffic.GUPS(addr.AllAccess, 128, 1, true, traffic.ReadOnly),
	})
	var addrs []uint64
	p.Mon.OnComplete = func(tr *packet.Transaction) { addrs = append(addrs, tr.Addr) }
	r.eng.Schedule(0, func() { p.Start() })
	r.eng.Schedule(5*sim.Microsecond, func() { p.Stop() })
	r.eng.Drain()
	if len(addrs) < 10 {
		t.Fatalf("only %d completions", len(addrs))
	}
	// Linear addresses are sequential at generation; completions may
	// reorder slightly, so check the set covers a contiguous range.
	seen := map[uint64]bool{}
	var max uint64
	for _, a := range addrs {
		seen[a] = true
		if a > max {
			max = a
		}
	}
	for a := uint64(0); a <= max; a += 128 {
		if !seen[a] {
			t.Fatalf("linear stream skipped address %#x", a)
		}
	}
}

func TestStreamPortPlaysTraceToCompletion(t *testing.T) {
	r := newRig(t)
	p := NewStreamPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0)
	trace := make([]Request, 50)
	for i := range trace {
		trace[i] = Request{Addr: uint64(i) * 4096, Size: 64}
	}
	idled := false
	p.OnIdle = func() { idled = true }
	r.eng.Schedule(0, func() { p.Play(trace) })
	r.eng.Drain()
	if !idled {
		t.Fatal("OnIdle never fired")
	}
	if p.Mon.Reads != 50 {
		t.Fatalf("completed %d reads, want 50", p.Mon.Reads)
	}
	if p.Busy() {
		t.Fatal("port still busy after drain")
	}
}

func TestStreamPortChannelSerializesResponses(t *testing.T) {
	// Two trace lengths: doubling the burst roughly doubles the tail
	// latency once the response channel saturates.
	run := func(n int) sim.Time {
		r := newRig(t)
		p := NewStreamPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0)
		trace := make([]Request, n)
		for i := range trace {
			trace[i] = Request{Addr: uint64(i*128) % (1 << 28), Size: 128}
		}
		r.eng.Schedule(0, func() { p.Play(trace) })
		r.eng.Drain()
		return p.Mon.MaxLat
	}
	small, large := run(20), run(40)
	if large <= small {
		t.Fatalf("max latency did not grow with burst: %v vs %v", small, large)
	}
}

func TestStreamPortRejectsOverlappingPlay(t *testing.T) {
	r := newRig(t)
	p := NewStreamPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0)
	r.eng.Schedule(0, func() {
		p.Play([]Request{{Addr: 0, Size: 16}})
		defer func() {
			if recover() == nil {
				t.Error("overlapping Play did not panic")
			}
		}()
		p.Play([]Request{{Addr: 128, Size: 16}})
	})
	r.eng.Drain()
}

func TestStreamPortReplays(t *testing.T) {
	r := newRig(t)
	p := NewStreamPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0)
	total := uint64(0)
	var playNext func(round int)
	playNext = func(round int) {
		if round >= 3 {
			return
		}
		p.Mon.Reset(r.eng.Now())
		p.OnIdle = func() {
			total += p.Mon.Reads
			playNext(round + 1)
		}
		p.Play([]Request{{Addr: 0, Size: 32}, {Addr: 4096, Size: 32}})
	}
	r.eng.Schedule(0, func() { playNext(0) })
	r.eng.Drain()
	if total != 6 {
		t.Fatalf("three replays completed %d reads, want 6", total)
	}
}

func TestControllerSharedBudgetOrdersThroughput(t *testing.T) {
	// The controller's per-packet cost grows with flit count, so pure
	// 128B read traffic completes fewer packets per second than 16B
	// traffic through the same engine.
	rate := func(size int) float64 {
		r := newRig(t)
		gups := gupsConfig(size, traffic.ReadOnly, addr.AllAccess, 8)
		gups.Tags = 1024
		p := NewTrafficPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, 0, gups)
		r.eng.Schedule(0, func() { p.Start() })
		window := 50 * sim.Microsecond
		r.eng.Run(window)
		p.Stop()
		reads := p.Mon.Reads
		r.eng.Drain()
		return float64(reads) / window.Seconds()
	}
	small, large := rate(16), rate(128)
	if small <= large {
		t.Fatalf("16B rate %v not above 128B rate %v", small, large)
	}
}

func TestMonitorReset(t *testing.T) {
	var m Monitor
	tr := &packet.Transaction{Size: 16, TGen: 0, TDone: 100 * sim.Nanosecond}
	m.record(tr)
	if m.Reads != 1 {
		t.Fatal("record did not count")
	}
	m.Reset(5 * sim.Microsecond)
	if m.Reads != 0 || m.AggLat != 0 || m.MinLat != 0 || m.CountedBytes != 0 {
		t.Fatal("reset left residue")
	}
	if m.WindowStart() != 5*sim.Microsecond {
		t.Fatalf("window start = %v", m.WindowStart())
	}
}

func TestTagPoolRoundTrip(t *testing.T) {
	p := newTagPool(3, 16, nil)
	seen := map[uint16]bool{}
	var taken []*packet.Transaction
	for i := 0; i < 16; i++ {
		tr, ok := p.take()
		if !ok {
			t.Fatalf("take %d failed", i)
		}
		if seen[tr.Tag] {
			t.Fatalf("duplicate tag %d", tr.Tag)
		}
		seen[tr.Tag] = true
		taken = append(taken, tr)
	}
	if _, ok := p.take(); ok {
		t.Fatal("take succeeded on empty pool")
	}
	woken := false
	p.notify(func() { woken = true })
	back := taken[5]
	back.Addr, back.TDone = 0x40, 9
	p.put(back)
	if !woken {
		t.Fatal("waiter not woken")
	}
	if p.outstanding() != 15 {
		t.Fatalf("outstanding = %d, want 15", p.outstanding())
	}
	tr, ok := p.take()
	if !ok || tr != back {
		t.Fatalf("take after put = %p, %v; want the returned transaction %p", tr, ok, back)
	}
	if *tr != (packet.Transaction{Tag: back.Tag}) {
		t.Fatalf("reused transaction not zeroed except for Tag: %+v", tr)
	}
}

// checkTagsHome asserts that a drained port's tag pool holds every
// transaction it made, each once: a leaked transaction leaves the pool
// short, and one put back twice overfills it or repeats in it.
func checkTagsHome(t *testing.T, name string, outstanding int, p *tagPool) {
	t.Helper()
	if outstanding != 0 {
		t.Errorf("%s: %d requests outstanding after drain", name, outstanding)
	}
	if p.made == 0 {
		t.Errorf("%s: made no transaction", name)
	}
	if len(p.free) != p.made {
		t.Errorf("%s: tag pool holds %d transactions, made %d", name, len(p.free), p.made)
	}
	seen := make(map[*packet.Transaction]bool, len(p.free))
	for _, tr := range p.free {
		if seen[tr] {
			t.Errorf("%s: transaction with tag %d is in the pool twice", name, tr.Tag)
		}
		seen[tr] = true
	}
}

// TestDrainedPortsHoldEveryTransaction runs a GUPS, a traffic and a
// stream port side by side, then checks that once the engine drains
// every tag pool holds every transaction it made. The GUPS port mixes
// reads and writes over two banks so its tags run out and its requests
// park for link tokens; the traffic port is open-loop with writes.
func TestDrainedPortsHoldEveryTransaction(t *testing.T) {
	r := newRig(t)
	cfg := DefaultConfig()
	mask, err := r.mapp.BanksMask(2)
	if err != nil {
		t.Fatal(err)
	}
	gups := NewTrafficPort(r.eng, cfg, r.ctrl, r.mapp, 0, gupsConfig(128, traffic.ReadWriteMix, mask, 5))
	gen, err := traffic.Compile(traffic.Spec{
		Pattern: traffic.PatternZipf, ZipfTheta: 0.9, WriteFraction: 0.3, MixRunLength: 4,
		Discipline: traffic.DisciplineOpen, RateGBps: 1.5,
	}, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	tp := NewTrafficPort(r.eng, cfg, r.ctrl, r.mapp, 1, TrafficConfig{Size: 64, Gen: gen})
	stream := NewStreamPort(r.eng, cfg, r.ctrl, r.mapp, 2)
	trace := make([]Request, 300)
	for i := range trace {
		trace[i] = Request{Addr: uint64(i) * 4096, Size: 32, Write: i%3 == 0}
	}
	r.eng.Schedule(0, func() {
		gups.Start()
		tp.Start()
		stream.Play(trace)
	})
	r.eng.Schedule(20*sim.Microsecond, func() {
		gups.Stop()
		tp.Stop()
	})
	r.eng.Drain()
	if gups.Mon.Reads == 0 || tp.Mon.Reads == 0 || stream.Mon.Reads == 0 {
		t.Fatalf("reads completed: gups %d, traffic %d, stream %d", gups.Mon.Reads, tp.Mon.Reads, stream.Mon.Reads)
	}
	checkTagsHome(t, "gups", gups.Outstanding(), gups.tags)
	checkTagsHome(t, "traffic", tp.Outstanding(), tp.tags)
	checkTagsHome(t, "stream", stream.Outstanding(), stream.tags)
}

func TestConfigClock(t *testing.T) {
	if got := DefaultConfig().Clock().Period; got != 5333 {
		t.Fatalf("FPGA period = %dps, want 5333", got)
	}
}

// TestControllerCompletionsKeepBookingKeys: the packet engine's jobs
// finish in booking order, and each completion fires at the (time, key)
// an At at booking would have given it, though the controller queues
// only the oldest one. A probe scheduled with At at a job's end, right
// after the job was booked, must therefore find the job finished, also
// for the jobs queued only when their predecessor finished: queued
// under a fresh key, their completions would fire after the probes.
func TestControllerCompletionsKeepBookingKeys(t *testing.T) {
	eng := sim.NewEngine()
	c := NewController(eng, DefaultConfig(), newFakeDev(eng, 2, 1<<10))
	const n = 16
	for i := 0; i < n; i++ {
		c.Submit(&packet.Transaction{ID: uint64(i), Size: 64})
		end := c.jobs.At(c.jobs.Len() - 1).end
		left := n - 1 - i
		eng.At(end, func() {
			if got := c.jobs.Len(); got != left {
				t.Errorf("job %d: %d jobs left at its end, want %d", i, got, left)
			}
		})
	}
	if got := eng.Pending(); got != n+1 {
		t.Fatalf("%d events queued for %d jobs and %d probes, want the probes and one completion", got, n, n)
	}
	eng.Drain()
	if c.jobs.Len() != 0 || c.RequestsSent() != n {
		t.Fatalf("after the drain: %d jobs left, %d requests sent, want 0 and %d", c.jobs.Len(), c.RequestsSent(), n)
	}
}
