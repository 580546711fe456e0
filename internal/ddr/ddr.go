// Package ddr models a traditional JEDEC bus-based memory channel
// (DDR3-1600-like) as the comparison baseline the paper refers to when it
// contrasts HMC behavior with "traditional DDRx systems": a single
// synchronous 64-bit channel with eight banks behind one shared command/
// data bus, no packetization and no NoC.
//
// The model deliberately mirrors the vault controller's structure so the
// ablation benches can attribute differences to the architecture rather
// than to modeling detail: per-bank timing state machines, a shared data
// bus, and a single request queue (DDR has one controller per channel, not
// one per vault).
package ddr

import (
	"fmt"

	"hmcsim/internal/dram"
	"hmcsim/internal/phys"
	"hmcsim/internal/sim"
)

// Config describes the channel.
type Config struct {
	Banks      int
	QueueDepth int
	Timing     dram.Timing
	// BusBandwidth is the channel's data-bus bandwidth: 64 bits at
	// 1600 MT/s = 12.8 GB/s.
	BusBandwidth phys.Bandwidth
	// BurstBytes is the minimum transfer: 64 B (BL8 on a 64-bit bus).
	BurstBytes int
	// CtrlLatency is the controller + PHY latency per direction.
	CtrlLatency sim.Time
}

// DefaultConfig returns a DDR3-1600-like channel.
func DefaultConfig() Config {
	return Config{
		Banks:      8,
		QueueDepth: 64,
		Timing: dram.Timing{
			TRCD:   13750 * sim.Picosecond,
			TCL:    13750 * sim.Picosecond,
			TRP:    13750 * sim.Picosecond,
			TRAS:   35000 * sim.Picosecond,
			TBurst: 5000 * sim.Picosecond, // 64 B burst at 12.8 GB/s
			TREFI:  7800 * sim.Nanosecond,
			TRFC:   260 * sim.Nanosecond,
		},
		BusBandwidth: phys.GBps(12.8),
		BurstBytes:   64,
		CtrlLatency:  15 * sim.Nanosecond,
	}
}

// Request is one channel transaction.
type Request struct {
	Addr  uint64
	Size  int
	Write bool

	Issued sim.Time
	Done   sim.Time
	fn     func(*Request)
}

// Channel is the DDR memory channel.
type Channel struct {
	eng   *sim.Engine
	cfg   Config
	banks []*dram.Bank
	queue *sim.Queue[*Request]
	bus   *sim.Server

	busyBank []bool
	waiters  []func()
}

// New builds an idle channel.
func New(eng *sim.Engine, cfg Config) *Channel {
	if cfg.Banks <= 0 || cfg.QueueDepth <= 0 {
		panic(fmt.Sprintf("ddr: invalid config %+v", cfg))
	}
	c := &Channel{
		eng:      eng,
		cfg:      cfg,
		banks:    make([]*dram.Bank, cfg.Banks),
		queue:    sim.NewQueue[*Request](cfg.QueueDepth),
		bus:      sim.NewServer(eng),
		busyBank: make([]bool, cfg.Banks),
	}
	for i := range c.banks {
		c.banks[i] = dram.NewBank(cfg.Timing, dram.OpenPage)
		c.banks[i].SetRefreshPhase(sim.Time(i) * cfg.Timing.TREFI / sim.Time(cfg.Banks))
	}
	return c
}

// bankOf maps an address to a bank (low-order interleave on 64 B lines,
// row bits above).
func (c *Channel) bankOf(a uint64) int {
	return int(a>>6) % c.cfg.Banks
}

func (c *Channel) rowOf(a uint64) uint64 {
	return a >> 16 // 8 KB rows over 8 banks
}

// TryAccess enqueues a request; done fires when data completes. It
// reports false when the controller queue is full.
func (c *Channel) TryAccess(req *Request, done func(*Request)) bool {
	if !c.queue.Push(req) {
		return false
	}
	req.fn = done
	c.pump()
	return true
}

// Notify registers a wake-up for queue space.
func (c *Channel) Notify(fn func()) { c.waiters = append(c.waiters, fn) }

// pump issues queued requests to idle banks, FR-FCFS-lite: the head
// request of each idle bank issues in arrival order.
func (c *Channel) pump() {
	for i := 0; i < c.queue.Len(); {
		req := c.queue.At(i)
		b := c.bankOf(req.Addr)
		if c.busyBank[b] {
			i++
			continue
		}
		c.queue.RemoveAt(i)
		c.busyBank[b] = true
		c.issue(req, b)
		w := c.waiters
		c.waiters = nil
		for _, fn := range w {
			fn()
		}
	}
}

func (c *Channel) issue(req *Request, b int) {
	now := c.eng.Now()
	req.Issued = now
	size := req.Size
	if size < c.cfg.BurstBytes {
		size = c.cfg.BurstBytes // DDR always moves full bursts
	}
	dataDone, bankReady := c.banks[b].Access(now+c.cfg.CtrlLatency, c.rowOf(req.Addr), size)
	c.eng.At(bankReady, func() {
		c.busyBank[b] = false
		c.pump()
	})
	c.eng.At(dataDone, func() {
		// The shared channel bus serializes the data transfer.
		c.bus.Reserve(c.cfg.BusBandwidth.TimeFor(size), func() {
			c.eng.Schedule(c.cfg.CtrlLatency, func() {
				req.Done = c.eng.Now()
				fn := req.fn
				req.fn = nil
				fn(req)
			})
		})
	})
}
