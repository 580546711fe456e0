// Package host models the FPGA side of the AC-510 evaluation system
// (Section III of the paper): up to nine traffic-generating ports, the
// Micron HMC controller they share, tag pools bounding outstanding
// requests, and the monitoring logic that records read latencies.
//
// Two firmware personalities are provided, matching the paper's Figure 5:
//
//   - TrafficPort: a free-running port that issues whatever a compiled
//     traffic.Gen asks for. On traffic.GUPS, which issues random or
//     linear requests shaped by an address mask/anti-mask, it is the
//     GUPS port of Figure 5a.
//   - StreamPort: a trace-driven port that issues a finite burst of
//     requests and streams response data back to the host over a
//     dedicated per-port channel (Figure 5b).
package host

import (
	"fmt"

	"hmcsim/internal/link"
	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
)

// Config holds the host-side calibration constants. They are the single
// source of truth for the FPGA model; each field's comment gives the
// paper's figure or section it reproduces.
type Config struct {
	// FPGAClockHz is the fabric clock; the AC-510 design runs at
	// 187.5 MHz, which is why nine parallel ports are needed to source
	// enough requests (Section III-B).
	FPGAClockHz float64

	// CtrlFlitSlotsPerCycle is the HMC controller's aggregate flit
	// throughput per FPGA cycle, shared between the transmit and receive
	// paths. Together with CtrlPacketOverheadSlots it sets the
	// controller-bound saturation bandwidth (the ~23 GB/s ceiling of
	// Figures 6 and 13d).
	CtrlFlitSlotsPerCycle float64
	// CtrlPacketOverheadSlots is the fixed per-packet processing cost in
	// flit slots; it penalizes small packets, reproducing the paper's
	// observation that small requests cannot reach the large-packet
	// bandwidth even at full port count.
	CtrlPacketOverheadSlots float64

	// TxLatency and RxLatency are the fixed pipeline latencies between a
	// port and the link SerDes in each direction. Together with link and
	// cube latencies they make up the ~547 ns infrastructure floor the
	// paper carries over from [18].
	TxLatency sim.Time
	RxLatency sim.Time

	// GUPSTagsPerPort and StreamTagsPerPort bound outstanding requests
	// per port; the read tag pool of Figure 5.
	GUPSTagsPerPort   int
	StreamTagsPerPort int

	// StreamChanBytesPerCycle is the width of a stream port's dedicated
	// response channel to the host (PicoStream). Reading one 16-byte
	// word per cycle is what makes large responses pile up in Figures 7
	// and 8.
	StreamChanBytesPerCycle int

	// Trace, when non-nil, observes the port tag pools (outstanding
	// counts, empty-pool stalls) across every port built from this
	// config. Nil keeps the issue-path hooks single branches.
	Trace *obs.HostTracer
}

// DefaultConfig returns the AC-510 host calibration.
func DefaultConfig() Config {
	return Config{
		FPGAClockHz:             187.5e6,
		CtrlFlitSlotsPerCycle:   8,
		CtrlPacketOverheadSlots: 0.5,
		TxLatency:               300 * sim.Nanosecond,
		RxLatency:               300 * sim.Nanosecond,
		GUPSTagsPerPort:         80,
		StreamTagsPerPort:       96,
		StreamChanBytesPerCycle: 16,
	}
}

// Clock returns the FPGA clock domain.
func (c Config) Clock() sim.Clock { return sim.NewClockHz(c.FPGAClockHz) }

// Device is the slice of the HMC the controller drives: request links in,
// response buffer releases out.
type Device interface {
	ReqDir(l int) *link.Dir
	ReleaseResp(l, flits int)
	Links() int
}

// completer receives finished transactions back at their issuing port.
type completer interface {
	complete(tr *packet.Transaction)
}

// Controller models the Micron HMC controller on the FPGA: a shared
// packet-processing engine in front of the link SerDes. Its throughput is
// a budget of flit slots per cycle plus a per-packet overhead, consumed by
// both directions.
//
// Packets move through fixed-order stages — the shared packet engine,
// then the Tx or Rx pipeline — each backed by a ring of in-flight work
// and a callback bound once at construction, so steady-state request and
// response processing allocates nothing.
type Controller struct {
	eng   *sim.Engine
	cfg   Config
	dev   Device
	ports map[int]completer

	engine   *sim.Server
	slotTime sim.Time
	rr       int

	// jobs holds the packets booked on the packet engine, in booking
	// order, which is the order they finish in. Only the head's
	// completion is queued, as engineFn at its booked (end, key); the
	// rest wait here, because a saturated packet engine books
	// microseconds ahead, beyond the calendar's horizon.
	jobs     sim.Ring[ctrlJob]
	engineFn func()
	txq      sim.Ring[*packet.Packet] // in the Tx pipeline (constant TxLatency)
	txFn     func()
	rxq      sim.Ring[*packet.Transaction] // in the Rx pipeline (constant RxLatency)
	rxFn     func()

	// blocked[l] holds, in park order, the requests that found every
	// link full and wait on link l's token pool (the first link their
	// attempt round-robin tried). The park that makes it non-empty
	// registers retryFns[l], the link's one waiter, on the pool, and the
	// wake-up takes the list whole. spare is the last taken list,
	// emptied and kept so that lists are recycled, not regrown.
	blocked  [][]*packet.Packet
	spare    []*packet.Packet
	retryFns []func()

	reqsSent  uint64
	respsRecv uint64
}

// ctrlJob is one packet occupying the shared engine: a request on its
// way out or a response on its way in.
type ctrlJob struct {
	pkt  *packet.Packet
	resp bool
	end  sim.Time // when the packet engine finishes it
	key  uint64   // the ordering key its completion fires under
}

// NewController builds the controller for the given device.
func NewController(eng *sim.Engine, cfg Config, dev Device) *Controller {
	if cfg.CtrlFlitSlotsPerCycle <= 0 {
		panic("host: CtrlFlitSlotsPerCycle must be positive")
	}
	period := cfg.Clock().Period
	c := &Controller{
		eng:      eng,
		cfg:      cfg,
		dev:      dev,
		ports:    make(map[int]completer),
		engine:   sim.NewServer(eng),
		slotTime: sim.Time(float64(period)/cfg.CtrlFlitSlotsPerCycle + 0.5),
	}
	c.engineFn = c.engineDone
	c.txFn = c.txDone
	c.rxFn = c.rxDone
	c.blocked = make([][]*packet.Packet, dev.Links())
	c.retryFns = make([]func(), dev.Links())
	for l := range c.retryFns {
		l := l
		c.retryFns[l] = func() { c.retry(l) }
	}
	return c
}

// service returns the controller processing time for one packet.
func (c *Controller) service(p *packet.Packet) sim.Time {
	slots := float64(p.Flits()) + c.cfg.CtrlPacketOverheadSlots
	return sim.Time(slots*float64(c.slotTime) + 0.5)
}

// register attaches a port for completion callbacks.
func (c *Controller) register(id int, p completer) {
	if _, dup := c.ports[id]; dup {
		panic(fmt.Sprintf("host: duplicate port id %d", id))
	}
	c.ports[id] = p
}

// Submit accepts a transaction from a port, processes the request packet,
// and pushes it onto a link. Ports bound their own submissions with tag
// pools, so Submit never rejects.
func (c *Controller) Submit(tr *packet.Transaction) {
	tr.TPortOut = c.eng.Now()
	c.book(tr.RequestPacket(tr.Tag), false)
}

// book reserves the packet engine for pkt and takes its completion's
// ordering key now, as the eager At of Reserve(dur, engineFn) would.
// It queues the completion only when pkt is the only job, so the
// engine's queue holds one completion at a time.
func (c *Controller) book(pkt *packet.Packet, resp bool) {
	end := c.engine.Reserve(c.service(pkt), nil)
	key := c.eng.Key()
	c.jobs.Push(ctrlJob{pkt: pkt, resp: resp, end: end, key: key})
	if c.jobs.Len() == 1 {
		c.eng.AtKey(end, key, c.engineFn)
	}
}

// engineDone fires when the packet engine finishes its oldest job, the
// head of the job ring. It first queues the next job's completion at
// the (end, key) booked for it: reservations end in booking order, so
// that end is not before now, and every completion fires at the same
// (time, key) as if it had been queued at booking.
func (c *Controller) engineDone() {
	j := c.jobs.Pop()
	if h, ok := c.jobs.Peek(); ok {
		c.eng.AtKey(h.end, h.key, c.engineFn)
	}
	if j.resp {
		// Only now does the packet leave the link receive buffer.
		c.dev.ReleaseResp(j.pkt.Link, j.pkt.Flits())
		c.rxq.Push(j.pkt.Tr)
		c.eng.Schedule(c.cfg.RxLatency, c.rxFn)
		return
	}
	c.txq.Push(j.pkt)
	c.eng.Schedule(c.cfg.TxLatency, c.txFn)
}

// txDone fires TxLatency after a request finished the packet engine;
// the latency is constant, so requests leave the Tx pipeline in the
// order they entered it.
func (c *Controller) txDone() { c.sendReq(c.txq.Pop()) }

// rxDone fires RxLatency after a response left the link buffer: the
// transaction returns to its issuing port. The latency is constant, so
// responses leave the Rx pipeline in the order they entered it.
func (c *Controller) rxDone() {
	tr := c.rxq.Pop()
	port, ok := c.ports[tr.Port]
	if !ok {
		panic(fmt.Sprintf("host: response for unknown port %d", tr.Port))
	}
	port.complete(tr)
}

// sendReq pushes the packet onto a link, round-robining across links and
// parking it for link tokens when the cube exerts back-pressure.
func (c *Controller) sendReq(pkt *packet.Packet) {
	links := len(c.blocked)
	first := c.next()
	for i := 0; i < links; i++ {
		l := (first + i) % links
		pkt.Link = l
		pkt.Tr.Link = l
		if c.dev.ReqDir(l).TrySend(pkt) {
			c.reqsSent++
			return
		}
	}
	c.park(first, pkt)
}

// next advances the round-robin and returns the link a send attempt
// tries first.
func (c *Controller) next() int {
	first := c.rr
	if c.rr++; c.rr == len(c.blocked) {
		c.rr = 0
	}
	return first
}

// park queues pkt behind link l's blocked requests. Only the park that
// makes the list non-empty registers a waiter, so a token release runs
// one callback per link however many requests wait.
func (c *Controller) park(l int, pkt *packet.Packet) {
	if len(c.blocked[l]) == 0 {
		c.dev.ReqDir(l).NotifyTokens(c.retryFns[l])
	}
	c.blocked[l] = append(c.blocked[l], pkt)
}

// retry is link l's token waiter. It takes l's list whole, giving the
// link the spare list, and gives its requests, from the head in park
// order, one send attempt each, just as one waiter per parked request
// would, so every request leaves at the same time, on the same link and
// in the same order. Requests it re-parks on l land in the fresh list
// and wait for the next release.
//
// Once no link has a free token, no request can leave before the next
// event, so the rest are dealt round-robin from rr, where their attempts
// would park them, without reading their packets: rest[j] goes to link
// (rr+j) mod links, so link t takes every links-th request from offset
// (t-rr) mod links, appended in one pass per link.
func (c *Controller) retry(l int) {
	list := c.blocked[l]
	c.blocked[l], c.spare = c.spare, nil // nil while lent, never lent twice
	i := 0
	for ; i < len(list) && c.tokensFree(); i++ {
		c.sendReq(list[i])
	}
	rest := list[i:]
	links := len(c.blocked)
	for t := range c.blocked {
		off := (t - c.rr + links) % links
		if off >= len(rest) {
			continue
		}
		q := c.blocked[t]
		if len(q) == 0 {
			c.dev.ReqDir(t).NotifyTokens(c.retryFns[t])
		}
		for j := off; j < len(rest); j += links {
			q = append(q, rest[j])
		}
		c.blocked[t] = q
	}
	c.rr = (c.rr + len(rest)) % links
	clear(list)
	c.spare = list[:0]
}

// tokensFree reports whether any request link has a free token.
func (c *Controller) tokensFree() bool {
	for l := range c.blocked {
		if c.dev.ReqDir(l).TokensAvailable() > 0 {
			return true
		}
	}
	return false
}

// OnResponse is wired as the cube's response delivery callback.
func (c *Controller) OnResponse(pkt *packet.Packet) {
	pkt.Tr.TLinkRx = c.eng.Now()
	c.respsRecv++
	c.book(pkt, true)
}

// RequestsSent returns the number of request packets pushed to links.
func (c *Controller) RequestsSent() uint64 { return c.reqsSent }

// ResponsesReceived returns the number of responses taken off the links.
func (c *Controller) ResponsesReceived() uint64 { return c.respsRecv }

// Utilization reports the packet engine's busy fraction.
func (c *Controller) Utilization(now sim.Time) float64 { return c.engine.Utilization(now) }

// tagPool is the port-level pool of transaction tags (Rd.Tag Pool in
// Figure 5). Tags are small integers unique per port so the wire format's
// 11-bit field can address them. Each tag owns one transaction, made the
// first time the tag is taken and handed out again by every later take,
// so the pool owns every transaction its port issues.
type tagPool struct {
	free    []*packet.Transaction // returned transactions, newest last
	made    int                   // tags taken at least once
	base    int                   // tag of the pool's first slot
	size    int
	waiters sim.Waiters
	trace   *obs.HostTracer
}

func newTagPool(port, n int, trace *obs.HostTracer) *tagPool {
	return &tagPool{base: port * n, size: n, trace: trace}
}

// take hands out a free tag's transaction, zeroed except for Tag. The
// newest returned tag goes first; tags never taken go only when none is
// returned, lowest first. That is the order of one LIFO stack that
// starts full, so tag values do not depend on when transactions are
// made.
func (p *tagPool) take() (*packet.Transaction, bool) {
	var tr *packet.Transaction
	switch n := len(p.free); {
	case n > 0:
		tr = p.free[n-1]
		p.free = p.free[:n-1]
		*tr = packet.Transaction{Tag: tr.Tag}
	case p.made < p.size:
		tr = &packet.Transaction{Tag: uint16((p.base + p.made) % 2048)}
		p.made++
	default:
		p.trace.OnTagWait()
		return nil, false
	}
	p.trace.OnTagTake(p.outstanding())
	return tr, true
}

// put returns a retired transaction and its tag to the pool.
func (p *tagPool) put(tr *packet.Transaction) {
	p.free = append(p.free, tr)
	p.waiters.Fire()
}

func (p *tagPool) notify(fn func()) { p.waiters.Add(fn) }

func (p *tagPool) outstanding() int { return p.made - len(p.free) }

// Monitor is the per-port monitoring logic (Section III-B): total reads
// and writes, aggregate/minimum/maximum read latency. It sits outside the
// critical path; recording costs no simulated time.
type Monitor struct {
	Reads, Writes uint64
	AggLat        sim.Time
	MinLat        sim.Time
	MaxLat        sim.Time
	CountedBytes  uint64

	windowStart sim.Time

	// OnComplete, when non-nil, observes every completed transaction;
	// experiments hook histograms here.
	OnComplete func(tr *packet.Transaction)
}

// Reset clears the window counters; experiments call it after warm-up.
func (m *Monitor) Reset(now sim.Time) {
	m.Reads, m.Writes = 0, 0
	m.AggLat, m.MinLat, m.MaxLat = 0, 0, 0
	m.CountedBytes = 0
	m.windowStart = now
}

// WindowStart returns the time of the last Reset.
func (m *Monitor) WindowStart() sim.Time { return m.windowStart }

func (m *Monitor) record(tr *packet.Transaction) {
	lat := tr.Latency()
	if tr.Write {
		m.Writes++
	} else {
		// As in the firmware, latency statistics cover reads.
		m.Reads++
		m.AggLat += lat
		if m.MinLat == 0 || lat < m.MinLat {
			m.MinLat = lat
		}
		if lat > m.MaxLat {
			m.MaxLat = lat
		}
	}
	m.CountedBytes += uint64(tr.RoundTripBytes())
	if m.OnComplete != nil {
		m.OnComplete(tr)
	}
}

// AvgLat returns the mean read latency since the last reset.
func (m *Monitor) AvgLat() sim.Time {
	if m.Reads == 0 {
		return 0
	}
	return m.AggLat / sim.Time(m.Reads)
}
