package noc

import (
	"fmt"

	"hmcsim/internal/obs"
	"hmcsim/internal/sim"
)

// Chan is a bridge edge of the fabric: a serializing channel between
// two fabric nodes. Three kinds of fabric edges are bridges — link
// ingress into a quadrant router, the quadrant-router full mesh, and
// quadrant router to link egress.
//
// A bridge differs from the in-router output pipeline in two ways, and
// the experiment goldens pin both:
//
//   - Its events carry channel ordering keys (sim.ChanKey), so
//     same-instant deliveries sort by the model's wiring rather than by
//     scheduling order.
//   - Credits return over the wire: the sender learns of a delivery one
//     flit + one hop (the channel's reverse latency) after it happens,
//     instead of at the delivery instant.
//
// Message flow: TryOut takes a credit and reserves ser+hop on the
// channel's server — back to back reservations reproduce the in-router
// pipeline's pacing of one message per ser+hop — and schedules delivery
// at the reservation's end. Delivery hands the message to the
// downstream outlet (parking on it under back-pressure), then schedules
// the credit return after the reverse latency, where the credit pool,
// OnForward and the forwarded count are maintained.
type Chan struct {
	name     string
	eng      *sim.Engine
	flitTime sim.Time
	hop      sim.Time
	retLat   sim.Time // credit-return wire latency: one flit + one hop

	credits *sim.TokenPool // admission: messages accepted, not yet credited back
	server  *sim.Server    // serialization pacing
	out     Outlet

	// OnForward, when non-nil, runs as each message's credit returns,
	// with the message's flit count. Link ingress uses it to return
	// link-level tokens.
	OnForward func(flits int)

	// Trace, when non-nil, observes accepts at this channel (standalone
	// ingress channels only; router-owned bridge slots are traced by
	// their router).
	Trace *obs.NoCTracer

	// Stall, when non-nil, observes credit stalls: TryOut attempts
	// refused by an empty credit pool. Kept separate from Trace because
	// router-owned bridge slots must report stalls without re-counting
	// hops their router already counted.
	Stall *obs.NoCTracer

	fwdID, retID   uint64 // channel IDs for the two event directions
	fwdSeq, retSeq uint64 // per-direction sequence numbers

	flight  sim.Ring[*Message] // accepted, not yet delivered
	pending sim.Ring[*Message] // delivered but not yet taken downstream
	await   sim.Ring[int]      // flit counts awaiting credit return

	received  uint64 // messages accepted
	forwarded uint64 // credits returned

	delivFn func() // delivery event
	retryFn func() // downstream freed up
	retFn   func() // credit return
}

// NewChan builds a bridge on eng feeding out, admitting at most credits
// messages between acceptance and credit return.
func NewChan(eng *sim.Engine, name string, cfg Config, credits int, out Outlet) *Chan {
	if credits <= 0 {
		panic(fmt.Sprintf("noc %s: channel needs a positive credit count", name))
	}
	c := &Chan{
		name:     name,
		eng:      eng,
		flitTime: cfg.FlitTime,
		hop:      cfg.HopLatency,
		retLat:   cfg.FlitTime + cfg.HopLatency,
		credits:  sim.NewTokenPool(credits),
		server:   sim.NewServer(eng),
		out:      out,
		fwdID:    eng.AllocChanID(),
		retID:    eng.AllocChanID(),
	}
	c.delivFn = c.deliver
	c.retryFn = c.drainPending
	c.retFn = c.creditReturn
	return c
}

// Name returns the channel's diagnostic name.
func (c *Chan) Name() string { return c.name }

// TryOut implements Outlet: admission against the credit pool, then
// acceptance. A true return transfers ownership of m to the channel.
func (c *Chan) TryOut(m *Message) bool {
	if !c.credits.TryAcquire(1) {
		c.Stall.OnCreditStall()
		return false
	}
	c.received++
	flits := m.Flits()
	end := c.server.Reserve(c.flitTime*sim.Time(flits)+c.hop, nil)
	c.flight.Push(m)
	c.await.Push(flits)
	c.fwdSeq++
	c.eng.AtKey(end, sim.ChanKey(c.fwdID, c.fwdSeq), c.delivFn)
	if c.Trace != nil {
		c.Trace.OnHop(c.Queued())
	}
	return true
}

// NotifyOut implements Outlet: fn fires when a credit frees up.
func (c *Chan) NotifyOut(m *Message, fn func()) { c.credits.Notify(fn) }

// deliver runs when a message's ser+hop elapses. Messages of one
// channel deliver in accept order (the server end times are
// non-decreasing and the sequence keys break ties), so the flight
// ring's head is always the delivered message. Whenever pending is
// non-empty exactly one drain driver exists — a parked outlet
// registration, a scheduled continuation, or a running drainPending —
// so deliver only starts one when the queue was empty.
func (c *Chan) deliver() {
	idle := c.pending.Empty()
	c.pending.Push(c.flight.Pop())
	if idle {
		c.drainPending()
	}
}

// drainPending hands the head pending message downstream, parking on
// the outlet under back-pressure, and sends its credit back after the
// reverse latency.
//
// It makes at most one attempt per invocation: a further pending
// message is handed over in a fresh same-instant event rather than
// synchronously. Retrying in place would re-register on the downstream
// credit pool from inside its waiter fire, ahead of every other parked
// channel, permanently capturing the pool; one attempt per event keeps
// contending channels alternating, like the in-router pipeline whose
// next delivery is always a later event.
func (c *Chan) drainPending() {
	m, _ := c.pending.Peek()
	if !c.out.TryOut(m) {
		c.out.NotifyOut(m, c.retryFn)
		return
	}
	// The outlet owns m now; it must not be touched again.
	c.pending.Pop()
	c.retSeq++
	c.eng.AtKey(c.eng.Now()+c.retLat, sim.ChanKey(c.retID, c.retSeq), c.retFn)
	if !c.pending.Empty() {
		c.eng.Schedule(0, c.retryFn)
	}
}

// creditReturn runs as each delivery's credit arrives back. Returns
// ride the same FIFO wire, so the await ring's head is always the
// message being credited.
func (c *Chan) creditReturn() {
	flits := c.await.Pop()
	c.forwarded++
	c.credits.Release(1)
	if c.OnForward != nil {
		c.OnForward(flits)
	}
}

// Received returns the number of messages accepted into the channel.
func (c *Chan) Received() uint64 { return c.received }

// Forwarded returns the number of messages whose downstream delivery
// has been credited back.
func (c *Chan) Forwarded() uint64 { return c.forwarded }

// Queued returns the channel's occupancy: messages accepted whose
// credit has not yet returned.
func (c *Chan) Queued() int { return c.await.Len() }
