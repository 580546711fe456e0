package host

import (
	"hmcsim/internal/addr"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
)

// RequestKind selects what a GUPS port issues.
type RequestKind int

const (
	// ReadOnly issues only reads; the paper's default ("the type of
	// requests are read only, unless stated otherwise").
	ReadOnly RequestKind = iota
	// WriteOnly issues only writes.
	WriteOnly
	// ReadWriteMix alternates reads and writes evenly, the balanced
	// traffic Section IV-F recommends for bi-directional links.
	ReadWriteMix
)

// GUPSConfig shapes one GUPS port's traffic.
type GUPSConfig struct {
	Size   int         // request data size in bytes (16..128)
	Kind   RequestKind // read/write mix
	Mask   addr.Mask   // address mask / anti-mask restricting the pattern
	Linear bool        // linear instead of random addressing
	Seed   uint64      // RNG seed (ignored for linear mode)
	Tags   int         // outstanding-request bound; 0 means the config default
}

// GUPSPort is the vendor-style traffic generator: every FPGA cycle it
// issues one request to a masked random (or linear) address, as long as a
// tag is free. Requests run for as long as the port is started.
type GUPSPort struct {
	id    int
	eng   *sim.Engine
	ctrl  *Controller
	clock sim.Clock
	cfg   GUPSConfig
	mapp  *addr.Mapping
	rng   *sim.Rand
	tags  *tagPool

	Mon Monitor

	tickT     *sim.Timer // reusable clock-tick event
	unblockFn func()     // pre-bound tag-pool waiter

	active  bool
	next    uint64 // linear-mode cursor
	issued  uint64
	blocked bool
}

// NewGUPSPort builds GUPS port id and registers it with the controller.
func NewGUPSPort(eng *sim.Engine, hostCfg Config, ctrl *Controller, mapp *addr.Mapping, id int, cfg GUPSConfig) *GUPSPort {
	if !packet.ValidSize(cfg.Size) {
		panic("host: invalid GUPS request size")
	}
	tags := cfg.Tags
	if tags <= 0 {
		tags = hostCfg.GUPSTagsPerPort
	}
	p := &GUPSPort{
		id:    id,
		eng:   eng,
		ctrl:  ctrl,
		clock: hostCfg.Clock(),
		cfg:   cfg,
		mapp:  mapp,
		rng:   sim.NewRand(cfg.Seed + uint64(id)*0x9E3779B9 + 1),
		tags:  newTagPool(id, tags, hostCfg.Trace),
	}
	p.tickT = eng.NewTimer(p.tick)
	p.unblockFn = func() {
		p.blocked = false
		if p.active {
			p.tickT.At(p.clock.Next(p.eng.Now()))
		}
	}
	ctrl.register(id, p)
	return p
}

// ID returns the port number.
func (p *GUPSPort) ID() int { return p.id }

// Start activates the port at the current simulation time.
func (p *GUPSPort) Start() {
	if p.active {
		return
	}
	p.active = true
	p.tickT.At(p.clock.Next(p.eng.Now()))
}

// Stop deactivates the port; in-flight requests still complete.
func (p *GUPSPort) Stop() { p.active = false }

// Outstanding returns the number of requests in flight.
func (p *GUPSPort) Outstanding() int { return p.tags.outstanding() }

// Issued returns the number of requests generated since Start.
func (p *GUPSPort) Issued() uint64 { return p.issued }

func (p *GUPSPort) tick() {
	if !p.active {
		return
	}
	tr, ok := p.tags.take()
	if !ok {
		if !p.blocked {
			p.blocked = true
			p.tags.notify(p.unblockFn)
		}
		return
	}
	p.generate(tr)
	p.issued++
	p.ctrl.Submit(tr)
	p.tickT.At(p.clock.Next(p.eng.Now() + 1))
}

// generate fills tr, fresh from the tag pool, with the next request.
func (p *GUPSPort) generate(tr *packet.Transaction) {
	var raw uint64
	if p.cfg.Linear {
		raw = p.next
		p.next += uint64(p.cfg.Size)
	} else {
		raw = p.rng.Uint64()
	}
	a := p.cfg.Mask.Apply(raw&(addr.CubeBytes-1)) &^ uint64(p.cfg.Size-1)
	write := false
	switch p.cfg.Kind {
	case WriteOnly:
		write = true
	case ReadWriteMix:
		write = p.issued%2 == 1
	}
	loc := p.mapp.Decode(a)
	tr.ID = p.issued | uint64(p.id)<<56
	tr.Write = write
	tr.Addr = a
	tr.Size = p.cfg.Size
	tr.Port = p.id
	tr.Vault, tr.Quadrant, tr.Bank, tr.Row = loc.Vault, loc.Quadrant, loc.Bank, loc.Row
	tr.TGen = p.eng.Now()
}

// complete implements the controller callback: GUPS discards response
// data on the FPGA, so the transaction retires as soon as the controller
// hands it over.
func (p *GUPSPort) complete(tr *packet.Transaction) {
	tr.TDone = p.eng.Now()
	p.Mon.record(tr)
	p.tags.put(tr)
}
