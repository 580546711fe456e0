package vault

import (
	"testing"

	"hmcsim/internal/packet"
	"hmcsim/internal/phys"
	"hmcsim/internal/sim"
)

// collector is a RespOutlet that accepts everything (optionally throttled).
type collector struct {
	got     []*packet.Transaction
	block   bool
	waiters []func()
}

func (c *collector) TryOut(tr *packet.Transaction) bool {
	if c.block {
		return false
	}
	c.got = append(c.got, tr)
	return true
}

func (c *collector) NotifyOut(_ *packet.Transaction, fn func()) { c.waiters = append(c.waiters, fn) }

func (c *collector) unblock() {
	c.block = false
	w := c.waiters
	c.waiters = nil
	for _, fn := range w {
		fn()
	}
}

func read(id uint64, bank int, row uint64, size int) *packet.Transaction {
	return &packet.Transaction{ID: id, Bank: bank, Row: row, Size: size}
}

func newTestVault(t *testing.T) (*sim.Engine, *Vault, *collector) {
	t.Helper()
	eng := sim.NewEngine()
	c := &collector{}
	return eng, New(eng, DefaultConfig(0), c), c
}

func TestSingleReadCompletes(t *testing.T) {
	eng, v, c := newTestVault(t)
	tr := read(1, 0, 7, 32)
	eng.Schedule(0, func() {
		if !v.TryAccept(tr) {
			t.Error("accept failed on empty vault")
		}
	})
	eng.Drain()
	if len(c.got) != 1 {
		t.Fatalf("completed %d transactions, want 1", len(c.got))
	}
	if tr.TVaultOut <= tr.TVaultIn {
		t.Fatalf("timestamps not ordered: in=%v out=%v", tr.TVaultIn, tr.TVaultOut)
	}
	// Latency must cover at least tRCD+tCL plus one beat plus TSV time.
	cfg := DefaultConfig(0)
	minLat := cfg.Timing.TRCD + cfg.Timing.TCL + cfg.Timing.TBurst
	if lat := tr.TVaultOut - tr.TVaultIn; lat < minLat {
		t.Fatalf("vault latency %v below DRAM floor %v", lat, minLat)
	}
}

func TestBankQueueBackpressure(t *testing.T) {
	eng, v, _ := newTestVault(t)
	cfg := DefaultConfig(0)
	capacity := cfg.BankQueueDepth + cfg.RecvQueueDepth
	eng.Schedule(0, func() {
		accepted := 0
		for i := 0; ; i++ {
			if !v.TryAccept(read(uint64(i), 3, 0, 16)) {
				break
			}
			accepted++
		}
		// The bank queue plus the shared input buffer fill, plus the one
		// request popped for immediate issue.
		if accepted < capacity || accepted > capacity+2 {
			t.Errorf("accepted %d before backpressure, want ~%d", accepted, capacity)
		}
	})
	eng.Drain()
}

func TestNotifyAcceptWakes(t *testing.T) {
	eng, v, _ := newTestVault(t)
	woken := false
	eng.Schedule(0, func() {
		for i := 0; v.TryAccept(read(uint64(i), 0, 0, 16)); i++ {
		}
		v.NotifyAccept(func() { woken = true })
	})
	eng.Drain()
	if !woken {
		t.Fatal("acceptor never woken after queue drained")
	}
}

func TestBanksOperateInParallel(t *testing.T) {
	// Two requests to different banks overlap; two to one bank serialize.
	engA := sim.NewEngine()
	cA := &collector{}
	vA := New(engA, DefaultConfig(0), cA)
	engA.Schedule(0, func() {
		vA.TryAccept(read(1, 0, 0, 32))
		vA.TryAccept(read(2, 1, 0, 32))
	})
	engA.Drain()
	parallelEnd := engA.Now()

	engB := sim.NewEngine()
	cB := &collector{}
	vB := New(engB, DefaultConfig(0), cB)
	engB.Schedule(0, func() {
		vB.TryAccept(read(1, 0, 0, 32))
		vB.TryAccept(read(2, 0, 1, 32))
	})
	engB.Drain()
	serialEnd := engB.Now()

	if parallelEnd >= serialEnd {
		t.Fatalf("parallel banks (%v) not faster than single bank (%v)", parallelEnd, serialEnd)
	}
}

func TestSingleBankRateIsTRCLimited(t *testing.T) {
	// Drive one bank hard; completions must be spaced at least tRC apart
	// in steady state. This is the "1 bank" bottleneck of Figure 6.
	eng, v, c := newTestVault(t)
	const n = 50
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			v.TryAccept(read(uint64(i), 0, uint64(i), 16))
		}
	})
	eng.Drain()
	if len(c.got) != n {
		t.Fatalf("completed %d, want %d", len(c.got), n)
	}
	cfg := DefaultConfig(0)
	elapsed := eng.Now()
	perReq := elapsed / n
	if perReq < cfg.Timing.TRC() {
		t.Fatalf("per-request time %v below tRC %v", perReq, cfg.Timing.TRC())
	}
}

func TestTSVCountedByteCap(t *testing.T) {
	// Spread load over all 16 banks so DRAM is not the limit; the
	// counted-byte throughput through the vault must respect
	// ~TSVBandwidth. This is the 10 GB/s plateau of Figures 6 and 13.
	eng := sim.NewEngine()
	c := &collector{}
	cfg := DefaultConfig(0)
	v := New(eng, cfg, c)
	const n = 2000
	size := 128
	eng.Schedule(0, func() {
		var issue func(i int)
		issue = func(i int) {
			if i >= n {
				return
			}
			tr := read(uint64(i), i%16, uint64(i/16), size)
			if !v.TryAccept(tr) {
				v.NotifyAccept(func() { issue(i) })
				return
			}
			issue(i + 1)
		}
		issue(0)
	})
	eng.Drain()
	counted := uint64(n) * uint64(packet.RoundTripBytes(false, size))
	bw := phys.Rate(counted, eng.Now())
	if bw.GBpsValue() > cfg.TSVBandwidth.GBpsValue()*1.02 {
		t.Fatalf("vault counted bandwidth %v exceeds TSV cap %v", bw, cfg.TSVBandwidth)
	}
	if bw.GBpsValue() < cfg.TSVBandwidth.GBpsValue()*0.85 {
		t.Fatalf("vault counted bandwidth %v far below TSV cap %v", bw, cfg.TSVBandwidth)
	}
}

func TestResponseBackpressureHolds(t *testing.T) {
	eng := sim.NewEngine()
	c := &collector{block: true}
	v := New(eng, DefaultConfig(0), c)
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			v.TryAccept(read(uint64(i), i, 0, 16))
		}
	})
	eng.Schedule(sim.Millisecond, func() {
		if len(c.got) != 0 {
			t.Errorf("responses leaked past blocked outlet: %d", len(c.got))
		}
		c.unblock()
	})
	eng.Drain()
	if len(c.got) != 4 {
		t.Fatalf("completed %d after unblock, want 4", len(c.got))
	}
	for _, tr := range c.got {
		if tr.TVaultOut < sim.Millisecond {
			t.Fatalf("TVaultOut %v predates unblock", tr.TVaultOut)
		}
	}
}

// TestRefusedHeadKeepsOneWaiter queues completions behind a response
// the outlet refuses: the vault registers one wake-up for the head, not
// one per completion, registers one again when a wake-up finds the
// outlet still refusing, and drains every completion once it accepts.
func TestRefusedHeadKeepsOneWaiter(t *testing.T) {
	eng := sim.NewEngine()
	c := &collector{block: true}
	v := New(eng, DefaultConfig(0), c)
	const n = 6
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			v.TryAccept(read(uint64(i), i, 0, 16))
		}
	})
	eng.Drain()
	if v.OutQueued() != n || len(c.waiters) != 1 {
		t.Fatalf("%d completions queued behind a refused head with %d waiters, want %d and 1", v.OutQueued(), len(c.waiters), n)
	}
	wake := c.waiters[0]
	c.waiters = nil
	wake()
	if len(c.waiters) != 1 {
		t.Fatalf("a wake-up refused again left %d waiters, want 1", len(c.waiters))
	}
	c.unblock()
	if len(c.got) != n || v.OutQueued() != 0 || len(c.waiters) != 0 {
		t.Fatalf("after the outlet accepts: %d delivered, %d queued, %d waiters; want %d, 0, 0", len(c.got), v.OutQueued(), len(c.waiters), n)
	}
}

func TestReadWriteCounters(t *testing.T) {
	eng, v, _ := newTestVault(t)
	eng.Schedule(0, func() {
		v.TryAccept(read(1, 0, 0, 64))
		w := read(2, 1, 0, 64)
		w.Write = true
		v.TryAccept(w)
	})
	eng.Drain()
	if v.Reads() != 1 || v.Writes() != 1 {
		t.Fatalf("reads/writes = %d/%d, want 1/1", v.Reads(), v.Writes())
	}
	if v.BytesServed() != 128 {
		t.Fatalf("bytes served = %d, want 128", v.BytesServed())
	}
}

func TestConservationUnderLoad(t *testing.T) {
	// Everything accepted eventually completes exactly once.
	eng := sim.NewEngine()
	c := &collector{}
	v := New(eng, DefaultConfig(0), c)
	rng := sim.NewRand(42)
	accepted := 0
	eng.Schedule(0, func() {
		var issue func(i int)
		issue = func(i int) {
			if i >= 500 {
				return
			}
			tr := read(uint64(i), rng.Intn(16), uint64(rng.Intn(1024)), 16*(rng.Intn(8)+1))
			if !v.TryAccept(tr) {
				v.NotifyAccept(func() { issue(i) })
				return
			}
			accepted++
			issue(i + 1)
		}
		issue(0)
	})
	eng.Drain()
	if accepted != 500 || len(c.got) != 500 {
		t.Fatalf("accepted %d, completed %d, want 500/500", accepted, len(c.got))
	}
	seen := map[uint64]bool{}
	for _, tr := range c.got {
		if seen[tr.ID] {
			t.Fatalf("transaction %d completed twice", tr.ID)
		}
		seen[tr.ID] = true
	}
}

func TestTimestampOrdering(t *testing.T) {
	eng, v, c := newTestVault(t)
	eng.Schedule(0, func() {
		for i := 0; i < 20; i++ {
			v.TryAccept(read(uint64(i), i%4, uint64(i), 32))
		}
	})
	eng.Drain()
	for _, tr := range c.got {
		if !(tr.TVaultIn <= tr.TIssued && tr.TIssued < tr.TVaultOut) {
			t.Fatalf("timestamps out of order: in=%v issued=%v out=%v",
				tr.TVaultIn, tr.TIssued, tr.TVaultOut)
		}
	}
}
