// Package link models the HMC external serial links: full-duplex lane
// bundles that serialize 16-byte flits, token-based flow control into the
// receiver's input buffer, and CRC-triggered retransmission from a retry
// buffer.
//
// A 15 Gbps half-width link (8 lanes) moves one flit every ~1.07 ns per
// direction, 15 GB/s raw. Two such links give the 60 GB/s peak
// bi-directional figure of Equation 1 in the paper.
package link

import (
	"fmt"

	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/phys"
	"hmcsim/internal/sim"
)

// Config describes one direction of a serial link.
type Config struct {
	Lanes        int           // 8 = half width, 16 = full width
	LaneRate     phys.LaneRate // e.g. 15 Gbps
	WireLatency  sim.Time      // SerDes + propagation delay per packet
	RxBufFlits   int           // receiver input buffer, in flits (token pool)
	ErrorRate    float64       // per-packet corruption probability
	RetryLatency sim.Time      // IRTRY round trip before retransmission
	Seed         uint64        // RNG seed for error injection

	// Trace, when non-nil, observes transmissions, retries and
	// serializer busy time for this direction. Nil keeps the egress hook
	// a single predictable branch.
	Trace *obs.LinkTracer
}

// DefaultConfig returns the AC-510 link configuration: half-width,
// 15 Gbps, clean channel.
func DefaultConfig() Config {
	return Config{
		Lanes:        8,
		LaneRate:     phys.Gbps(15),
		WireLatency:  12 * sim.Nanosecond,
		RxBufFlits:   512,
		ErrorRate:    0,
		RetryLatency: 80 * sim.Nanosecond,
		Seed:         1,
	}
}

// Bandwidth returns the raw per-direction bandwidth of the configured
// lane bundle.
func (c Config) Bandwidth() phys.Bandwidth {
	return phys.LinkBandwidth(c.Lanes, c.LaneRate)
}

// FlitTime returns the serialization time of one 16-byte flit.
func (c Config) FlitTime() sim.Time {
	return c.Bandwidth().TimeFor(packet.FlitBytes)
}

// Dir is one direction of a link: a serializer, the far side's input
// buffer tokens, and a delivery callback.
//
// Packets move through two fixed-order stages — the serializer, then the
// wire — each backed by a ring of in-flight packets and a callback bound
// once at construction, so steady-state transmission allocates nothing.
type Dir struct {
	name     string
	eng      *sim.Engine
	cfg      Config
	flitTime sim.Time
	ser      *sim.Server
	tokens   *sim.TokenPool
	rng      *sim.Rand
	deliver  func(*packet.Packet)

	serq   sim.Ring[*packet.Packet] // on the serializer, FIFO by Reserve order
	serFn  func()
	wireq  sim.Ring[*packet.Packet] // on the wire, FIFO by constant WireLatency
	wireFn func()

	packets uint64
	flits   uint64
	retries uint64
	trace   *obs.LinkTracer
}

// NewDir builds one link direction. deliver is invoked on the receiving
// side once a packet has fully deserialized and passed its CRC check.
// The receiver must call Release when it drains the packet from its input
// buffer, or the link will exhaust its tokens and stall — which is exactly
// how real back-pressure propagates to the host.
func NewDir(eng *sim.Engine, name string, cfg Config, deliver func(*packet.Packet)) *Dir {
	if cfg.Lanes <= 0 || cfg.LaneRate <= 0 {
		panic(fmt.Sprintf("link %s: invalid lane config %d x %v", name, cfg.Lanes, cfg.LaneRate))
	}
	if cfg.RxBufFlits <= 0 {
		panic(fmt.Sprintf("link %s: RxBufFlits must be positive", name))
	}
	d := &Dir{
		name:     name,
		eng:      eng,
		cfg:      cfg,
		flitTime: cfg.FlitTime(),
		ser:      sim.NewServer(eng),
		tokens:   sim.NewTokenPool(cfg.RxBufFlits),
		rng:      sim.NewRand(cfg.Seed),
		deliver:  deliver,
		trace:    cfg.Trace,
	}
	d.serFn = d.serDone
	d.wireFn = d.wireDone
	return d
}

// TrySend begins transmitting p if the receiver has buffer tokens for all
// of its flits. It reports false, leaving the link unchanged, when tokens
// are unavailable.
func (d *Dir) TrySend(p *packet.Packet) bool {
	if !d.tokens.TryAcquire(p.Flits()) {
		return false
	}
	d.transmit(p)
	return true
}

// NotifyTokens registers fn to run the next time tokens are released,
// letting a blocked sender retry without polling.
func (d *Dir) NotifyTokens(fn func()) { d.tokens.Notify(fn) }

// Release returns buffer space for n flits; the receiving component calls
// it when a packet leaves the link input buffer.
func (d *Dir) Release(n int) { d.tokens.Release(n) }

func (d *Dir) transmit(p *packet.Packet) {
	d.serq.Push(p)
	d.ser.Reserve(d.flitTime*sim.Time(p.Flits()), d.serFn)
}

// serDone fires when the serializer finishes its oldest reservation;
// reservations complete in Reserve order, so the head of serq is the
// packet that just finished.
func (d *Dir) serDone() {
	p := d.serq.Pop()
	flits := p.Flits()
	if d.cfg.ErrorRate > 0 && d.rng.Float64() < d.cfg.ErrorRate {
		// The receiver's CRC check fails; after the IRTRY exchange the
		// packet is retransmitted from the retry buffer. Tokens remain
		// held: the receiver reserved space for this packet. The retry
		// closure is the one allocation on this path; it only exists on
		// lossy-link configurations.
		d.retries++
		d.trace.OnRetry(int64(d.flitTime) * int64(flits))
		d.eng.Schedule(d.cfg.RetryLatency, func() { d.transmit(p) })
		return
	}
	d.packets++
	d.flits += uint64(flits)
	d.trace.OnTx(flits, int64(d.flitTime)*int64(flits))
	d.wireq.Push(p)
	d.eng.Schedule(d.cfg.WireLatency, d.wireFn)
}

// wireDone fires WireLatency after a packet finished serializing; the
// latency is constant, so deliveries complete in transmission order.
func (d *Dir) wireDone() { d.deliver(d.wireq.Pop()) }

// Name returns the direction's diagnostic name.
func (d *Dir) Name() string { return d.name }

// Packets returns the number of packets delivered (excluding retried
// transmissions).
func (d *Dir) Packets() uint64 { return d.packets }

// Flits returns the number of flits delivered.
func (d *Dir) Flits() uint64 { return d.flits }

// Bytes returns the number of bytes delivered.
func (d *Dir) Bytes() uint64 { return d.flits * packet.FlitBytes }

// Retries returns the number of CRC-triggered retransmissions.
func (d *Dir) Retries() uint64 { return d.retries }

// Utilization reports the serializer's busy fraction over [0, now].
func (d *Dir) Utilization(now sim.Time) float64 { return d.ser.Utilization(now) }

// TokensAvailable exposes the current free space in the far buffer.
func (d *Dir) TokensAvailable() int { return d.tokens.Available() }

// Link is a full-duplex link: a request direction (host to cube) and a
// response direction (cube to host).
type Link struct {
	ID   int
	Req  *Dir
	Resp *Dir
}
