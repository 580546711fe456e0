package host

import (
	"hmcsim/internal/addr"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
)

// Request is one entry of a memory trace driven through a StreamPort.
type Request struct {
	Addr  uint64
	Size  int
	Write bool
}

// StreamPort is the multi-port stream firmware personality (Figure 5b):
// it plays a finite trace, one request per FPGA cycle while tags last,
// and streams each response's data back to the host over a dedicated
// channel that moves StreamChanBytesPerCycle per cycle. That readback
// serialization is the dominant queuing term in the paper's low-load
// latency curves (Figures 7 and 8).
type StreamPort struct {
	id    int
	eng   *sim.Engine
	ctrl  *Controller
	clock sim.Clock
	cfg   Config
	mapp  *addr.Mapping
	tags  *tagPool

	Mon Monitor

	channel *sim.Server
	chanq   sim.Ring[*packet.Transaction] // on the readback channel, FIFO
	chanFn  func()

	tickFn   func() // pre-bound clock tick
	resumeFn func() // pre-bound tag-pool waiter

	trace   []Request
	cursor  int
	pending int // issued but not yet retired
	running bool
	issued  uint64

	// OnIdle, when non-nil, fires once the current trace is fully issued
	// and every response has drained. Experiments chain bursts with it.
	OnIdle func()
}

// NewStreamPort builds stream port id and registers it with the
// controller.
func NewStreamPort(eng *sim.Engine, hostCfg Config, ctrl *Controller, mapp *addr.Mapping, id int) *StreamPort {
	p := &StreamPort{
		id:      id,
		eng:     eng,
		ctrl:    ctrl,
		clock:   hostCfg.Clock(),
		cfg:     hostCfg,
		mapp:    mapp,
		tags:    newTagPool(id, hostCfg.StreamTagsPerPort, hostCfg.Trace),
		channel: sim.NewServer(eng),
	}
	p.chanFn = p.chanDone
	p.tickFn = p.tick
	p.resumeFn = func() {
		if p.running {
			p.eng.At(p.clock.Next(p.eng.Now()), p.tickFn)
		}
	}
	ctrl.register(id, p)
	return p
}

// ID returns the port number.
func (p *StreamPort) ID() int { return p.id }

// Play starts issuing the given trace. It panics if the port is still
// draining a previous trace.
func (p *StreamPort) Play(trace []Request) {
	if p.running || p.pending > 0 {
		panic("host: StreamPort.Play while busy")
	}
	p.trace = trace
	p.cursor = 0
	p.running = true
	p.eng.At(p.clock.Next(p.eng.Now()), p.tickFn)
}

// Busy reports whether the port still has work in flight.
func (p *StreamPort) Busy() bool { return p.running || p.pending > 0 }

// Outstanding returns the number of requests in flight.
func (p *StreamPort) Outstanding() int { return p.tags.outstanding() }

func (p *StreamPort) tick() {
	if !p.running {
		return
	}
	if p.cursor >= len(p.trace) {
		p.running = false
		p.maybeIdle()
		return
	}
	tr, ok := p.tags.take()
	if !ok {
		p.tags.notify(p.resumeFn)
		return
	}
	req := p.trace[p.cursor]
	p.cursor++
	loc := p.mapp.Decode(req.Addr)
	tr.ID = p.issued | uint64(p.id)<<56
	tr.Write = req.Write
	tr.Addr = req.Addr
	tr.Size = req.Size
	tr.Port = p.id
	tr.Vault, tr.Quadrant, tr.Bank, tr.Row = loc.Vault, loc.Quadrant, loc.Bank, loc.Row
	tr.TGen = p.eng.Now()
	p.issued++
	p.pending++
	p.ctrl.Submit(tr)
	p.eng.At(p.clock.Next(p.eng.Now()+1), p.tickFn)
}

// complete streams the response data to the host over the port's channel
// before retiring the transaction.
func (p *StreamPort) complete(tr *packet.Transaction) {
	flits := packet.ResponseFlits(tr.Write, tr.Size)
	perCycleBytes := p.cfg.StreamChanBytesPerCycle
	cycles := (flits*packet.FlitBytes + perCycleBytes - 1) / perCycleBytes
	p.chanq.Push(tr)
	p.channel.Reserve(p.clock.Cycles(int64(cycles)), p.chanFn)
}

// chanDone fires when the readback channel finishes its oldest transfer;
// transfers complete in Reserve order, so the head of the ring is the
// transaction whose response just finished streaming to the host.
func (p *StreamPort) chanDone() {
	tr := p.chanq.Pop()
	tr.TDone = p.eng.Now()
	p.Mon.record(tr)
	p.tags.put(tr)
	p.pending--
	p.maybeIdle()
}

func (p *StreamPort) maybeIdle() {
	if !p.running && p.pending == 0 && p.OnIdle != nil {
		fn := p.OnIdle
		fn()
	}
}
