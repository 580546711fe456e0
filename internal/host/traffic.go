package host

import (
	"hmcsim/internal/addr"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// TrafficConfig shapes one free-running port.
type TrafficConfig struct {
	Size int          // request data size in bytes (16..128)
	Gen  *traffic.Gen // compiled generator: a traffic.Spec, or traffic.GUPS
	Tags int          // outstanding-request bound; 0 means the config default
}

// TrafficPort drives a compiled traffic.Gen against the controller: the
// free-running firmware personality beside StreamPort. It runs on the
// FPGA clock, and the address stream, the read/write mix, the phase
// script and the injection discipline all come from the generator.
// Closed-loop ports issue once per cycle while a tag is free; open-loop
// ports meter issues through a token bucket toward a target GB/s. On a
// traffic.GUPS generator it is the paper's GUPS port (Figure 5a).
//
// The steady-state issue path allocates nothing: the tick and phase
// callbacks are bound once at construction, transactions come from the
// port's tag pool, and Gen.Next is allocation-free by contract.
type TrafficPort struct {
	id    int
	eng   *sim.Engine
	ctrl  *Controller
	clock sim.Clock
	size  int
	gen   *traffic.Gen
	mapp  *addr.Mapping
	tags  *tagPool

	Mon Monitor

	tickFn    func() // pre-bound clock tick
	phaseFn   func() // pre-bound phase boundary
	unblockFn func() // pre-bound tag-pool waiter

	closed bool
	phases []traffic.PhaseInfo
	phase  int

	// Open-loop token bucket in 1/65536-byte fixed point. Tokens accrue
	// once per tick; the cap bounds the burst a stall can bank.
	bucket    int64
	perTick   int64
	sizeFP    int64
	bucketCap int64

	active  bool
	off     bool // inside an Off phase
	ticking bool // a tick event is scheduled
	blocked bool // parked on the tag pool
	issued  uint64
}

// NewTrafficPort builds traffic port id and registers it with the
// controller.
func NewTrafficPort(eng *sim.Engine, hostCfg Config, ctrl *Controller, mapp *addr.Mapping, id int, cfg TrafficConfig) *TrafficPort {
	if !packet.ValidSize(cfg.Size) {
		panic("host: invalid traffic request size")
	}
	if cfg.Gen == nil {
		panic("host: traffic port needs a compiled generator")
	}
	tags := cfg.Tags
	if tags <= 0 {
		tags = hostCfg.GUPSTagsPerPort
	}
	p := &TrafficPort{
		id:     id,
		eng:    eng,
		ctrl:   ctrl,
		clock:  hostCfg.Clock(),
		size:   cfg.Size,
		gen:    cfg.Gen,
		mapp:   mapp,
		tags:   newTagPool(id, tags, hostCfg.Trace),
		closed: cfg.Gen.Closed(),
		phases: cfg.Gen.Phases(),
		sizeFP: int64(cfg.Size) << 16,
	}
	p.bucketCap = 8 * p.sizeFP
	p.tickFn = p.tick
	p.phaseFn = p.phaseAdvance
	p.unblockFn = func() {
		p.blocked = false
		if p.active && !p.off && !p.ticking {
			p.armTick(p.clock.Next(p.eng.Now()))
		}
	}
	ctrl.register(id, p)
	return p
}

// ID returns the port number.
func (p *TrafficPort) ID() int { return p.id }

// Start activates the port (and its phase script) at the current
// simulation time.
func (p *TrafficPort) Start() {
	if p.active {
		return
	}
	p.active = true
	if len(p.phases) > 0 {
		p.phase = 0
		p.applyPhase()
		p.eng.Schedule(p.phases[0].Duration, p.phaseFn)
		return
	}
	p.setRate(p.gen.RateGBps())
	p.armTick(p.clock.Next(p.eng.Now()))
}

// Stop deactivates the port; in-flight requests still complete.
func (p *TrafficPort) Stop() { p.active = false }

// Outstanding returns the number of requests in flight.
func (p *TrafficPort) Outstanding() int { return p.tags.outstanding() }

// Issued returns the number of requests generated since Start.
func (p *TrafficPort) Issued() uint64 { return p.issued }

// armTick schedules the tick callback; the flag keeps the chain single
// so a phase boundary and a tag release cannot double-issue.
func (p *TrafficPort) armTick(at sim.Time) {
	p.ticking = true
	p.eng.At(at, p.tickFn)
}

// setRate converts an open-loop GB/s target into token-bucket credit
// per FPGA cycle (closed-loop ports never consult the bucket).
func (p *TrafficPort) setRate(gbps float64) {
	if p.closed {
		return
	}
	// bytes/cycle = GB/s * 1e9 * period_ps * 1e-12; in fixed point that
	// is gbps * period / 1000 * 65536.
	p.perTick = int64(gbps*float64(p.clock.Period)/1000*65536 + 0.5)
}

// phaseAdvance fires at each phase boundary; the script repeats.
func (p *TrafficPort) phaseAdvance() {
	if !p.active {
		return
	}
	p.phase = (p.phase + 1) % len(p.phases)
	p.applyPhase()
	p.eng.Schedule(p.phases[p.phase].Duration, p.phaseFn)
}

// applyPhase installs the current phase's pattern, rate, and on/off
// state, restarting the tick chain when a silent phase ends.
func (p *TrafficPort) applyPhase() {
	info := p.phases[p.phase]
	p.gen.UsePhase(p.phase)
	p.off = info.Off
	p.setRate(info.RateGBps)
	if !p.off && !p.ticking && !p.blocked {
		p.armTick(p.clock.Next(p.eng.Now()))
	}
}

func (p *TrafficPort) tick() {
	p.ticking = false
	if !p.active || p.off {
		return
	}
	if p.closed {
		tr, ok := p.tags.take()
		if !ok {
			p.park()
			return
		}
		p.issue(tr)
		p.armTick(p.clock.Next(p.eng.Now() + 1))
		return
	}
	p.bucket += p.perTick
	if p.bucket > p.bucketCap {
		p.bucket = p.bucketCap
	}
	for p.bucket >= p.sizeFP {
		tr, ok := p.tags.take()
		if !ok {
			p.park()
			return
		}
		p.bucket -= p.sizeFP
		p.issue(tr)
	}
	p.armTick(p.clock.Next(p.eng.Now() + 1))
}

// park registers the port on the tag pool; the tick chain resumes when
// a tag frees.
func (p *TrafficPort) park() {
	if !p.blocked {
		p.blocked = true
		p.tags.notify(p.unblockFn)
	}
}

// issue fills tr, fresh from the tag pool, with the generator's next
// request and submits it.
func (p *TrafficPort) issue(tr *packet.Transaction) {
	a, write := p.gen.Next()
	a &= addr.CubeBytes - 1
	loc := p.mapp.Decode(a)
	tr.ID = p.issued | uint64(p.id)<<56
	tr.Write = write
	tr.Addr = a
	tr.Size = p.size
	tr.Port = p.id
	tr.Vault, tr.Quadrant, tr.Bank, tr.Row = loc.Vault, loc.Quadrant, loc.Bank, loc.Row
	tr.TGen = p.eng.Now()
	p.issued++
	p.ctrl.Submit(tr)
}

// complete implements the controller callback: as in the GUPS firmware,
// response data is discarded on the FPGA, so the transaction retires
// immediately.
func (p *TrafficPort) complete(tr *packet.Transaction) {
	tr.TDone = p.eng.Now()
	p.Mon.record(tr)
	p.tags.put(tr)
}
