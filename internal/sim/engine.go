// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is measured in integer picoseconds (type Time). Every event fires
// in (time, key) order, which makes every simulation in this repository
// bit-for-bit reproducible for a given seed. Ordinary keys are the
// engine's sequence numbers, taken by At (and Schedule) or by Key, so
// same-instant ordinary events fire in the order their keys were taken;
// channel keys come from ChanKey and follow every ordinary event of
// their instant.
//
// The kernel is deliberately minimal: an Engine owns a priority queue of
// events, and components interact by scheduling closures. Higher-level
// building blocks (bounded queues, busy servers, token pools) live in the
// other files of this package.
//
// The kernel is also deliberately allocation-free on its steady-state hot
// path: the event queue is a calendar queue whose list nodes are recycled
// through a free list (no container/heap, no interface boxing), and
// components that wake up repeatedly bind their callback once at
// construction instead of allocating a closure per wakeup.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

// maxTime is the latest representable time, the bound Step pops with.
const maxTime = Time(1<<63 - 1)

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// event is a scheduled callback.
type event struct {
	at  Time
	key uint64 // ordering key; breaks same-instant ties deterministically
	fn  func()
}

// before orders events by time, then by ordering key. For ordinary
// events the key is the engine's insertion counter, so same-instant
// events fire in scheduling order. Channel events (see ChanKey) carry a
// key with the top bit set, which places them after every ordinary
// event of the same instant and orders them by (channel, sequence): an
// order fixed by the model's wiring rather than by when each event was
// scheduled.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// chanBand is the key-space band reserved for channel events.
const chanBand = uint64(1) << 63

// ChanKey builds the ordering key of the seq-th event on channel id.
// Channel IDs come from AllocChanID so they are unique within an
// engine; per-channel sequences keep the (time, key) pair unique. The
// layout leaves 40 bits of sequence per channel — ~10^12 events, far
// beyond any run in this repository.
func ChanKey(id, seq uint64) uint64 {
	return chanBand | id<<40 | seq&(1<<40-1)
}

// Calendar geometry. Bucket b of the ring holds the events of the one
// 64 ps span k (time>>calShift == k) with k ≡ b (mod calBuckets) that
// lies within the horizon: calBuckets spans (524 ns) from now's, which
// covers every fixed latency in the model up to the 300 ns host Tx/Rx
// stage. Events beyond the horizon wait in the far heap.
//
// The width follows the spacing of the events the model queues. Of the
// 912,632 pushes of one open-loop traffic rep (the benchmark's
// traffic-rw), 2.4 % land under 1 ns ahead, 36.0 % 1-4 ns, 47.5 %
// 4-16 ns, 6.9 % 16-64 ns, 7.1 % 64-524 ns and 64 beyond the horizon.
// Against 256 ps buckets, 64 ps ones cut the pushes that walk into a
// bucket's middle from 22.6 % to 9.2 %. In a sweep of the width at this
// horizon, traffic-rw reps ran 3.8 % slower at 512 ps and 6.8, 10.6,
// 12.0 and 10.9 % faster at 128, 64, 32 and 16 ps; 32 ps gained
// nothing more on saturated GUPS, for twice the ring and more peak
// memory. A bucket is addressed by its list's last node alone, so the
// ring takes 32 KB per engine.
const (
	calShift   = 6 // log2 of the bucket width in ps
	calBuckets = 8192
	calMask    = calBuckets - 1
	calWords   = calBuckets / 64 // words of the non-empty bitmap
)

// calNode is one calendar event in the engine's node pool, linked to the
// next event of its bucket; the last event links back to the first.
type calNode struct {
	ev   event
	next int32 // index of the next node in the bucket's circular list
}

// calPoolMin is the node pool's first size. The calendar holds a few
// hundred events at its peak on a cube under load (217 on open-loop
// traffic, 771 on saturated GUPS), so a pool that started at one node
// would copy itself eight times to get there, leaving each copy behind
// as garbage.
const calPoolMin = 256

// Engine is a discrete-event simulation kernel.
// The zero value is ready to use.
//
// The event queue is a calendar queue (R. Brown, Communications of the
// ACM 31(10), 1988): a ring of fixed-width time buckets, each a circular
// list sorted by before, with a bitmap of the non-empty buckets. Scheduling
// is an append to its bucket's list in the common case, and the next
// event is the head of the first non-empty bucket from now's, found
// with one or a few bitmap words. Neither cost grows with the number
// of pending events. Events beyond the ring's horizon wait in a 4-ary
// min-heap, whose head is compared with the calendar's at every fire.
// Every event so fires at its (time, key) in the same total order as
// under a single heap.
type Engine struct {
	nodes []calNode // node pool; nodes[0] is the list sentinel, never an event
	free  int32     // first node of the free list, 0 when empty
	// ring[b] is the last node of bucket b's list, sorted by before and
	// closed into a circle so that its next is the first; 0 when empty.
	ring [calBuckets]int32
	full [calWords]uint64 // bit b set when ring[b] is non-empty
	ncal int              // events in the calendar
	far  []event          // 4-ary min-heap of events beyond the horizon

	now    Time
	seq    uint64
	nfired uint64

	chanIDs uint64 // channel-ID allocator (see AllocChanID)

	// Checkpoint state: every ckEvery fired events Run and Drain call
	// ckFn, which may observe progress and request an early stop by
	// returning false. ckEvery == 0 (the default) disables the check, so
	// the uninstrumented loop pays one predictable branch per event and
	// nothing else.
	ckEvery     uint64
	ckLeft      uint64
	ckFn        func() bool
	interrupted bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.nfired }

// AllocChanID returns a fresh channel ID, unique within the engine.
// Model construction is deterministic, so the k-th allocated ID, and
// with it every ChanKey, is the same on every build of the model.
func (e *Engine) AllocChanID() uint64 {
	id := e.chanIDs
	e.chanIDs++
	return id
}

// Pending returns the number of queued, unfired events, in the calendar
// and beyond its horizon. A completion that a component holds back
// under a key taken with Key is not queued, so it does not count until
// the component queues it with AtKey.
func (e *Engine) Pending() int { return e.ncal + len(e.far) }

// Schedule runs fn after delay. A negative delay is treated as zero.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// scheduleInPast reports the broken-model error out of line: the panic
// path is cold by definition, and hoisting it keeps fmt (and the
// boxing its arguments imply) off the scheduling path.
//
//go:noinline
func scheduleInPast(t, now Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, now))
}

// At runs fn at absolute time t. Scheduling in the past is an error
// that indicates a broken component model, so it panics.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		scheduleInPast(t, e.now)
	}
	e.seq++
	e.push(event{at: t, key: e.seq, fn: fn})
}

// AtKey runs fn at absolute time t under an explicit ordering key: a
// channel key built with ChanKey, or an ordinary key taken earlier with
// Key. Channels use it so that same-instant delivery order depends only
// on the model's wiring, never on when the event was scheduled; a
// component that holds a FIFO of completions uses it to queue each one,
// when it reaches the head, under the key it took at booking. The
// caller must keep (t, key) pairs unique, which each key used once
// guarantees.
func (e *Engine) AtKey(t Time, key uint64, fn func()) {
	if t < e.now {
		scheduleInPast(t, e.now)
	}
	e.push(event{at: t, key: key, fn: fn})
}

// Key takes the engine's next ordinary ordering key, as At does, without
// queueing anything. An event later queued with AtKey under that key
// fires exactly where an At at the time of the Key call would have put
// it, so a component whose completions fire in booking order can take
// each one's key when it books it and queue only the oldest.
func (e *Engine) Key() uint64 {
	e.seq++
	return e.seq
}

// push queues ev, which is not in the past: into its calendar bucket if
// it falls within the horizon, else into the far heap. Every calendar
// event so lies within calBuckets buckets of now's, and each ring slot
// holds the events of one bucket only. Most events come no earlier than
// their bucket's last one and append in O(1); the rest walk the list
// from its head.
func (e *Engine) push(ev event) {
	b := ev.at >> calShift
	if b-e.now>>calShift >= calBuckets {
		e.farPush(ev)
		return
	}
	n := e.free
	if n == 0 {
		n = e.grow()
	} else {
		e.free = e.nodes[n].next
	}
	nodes := e.nodes
	slot := int(b & calMask)
	switch t := e.ring[slot]; {
	case t == 0:
		nodes[n] = calNode{ev: ev, next: n}
		e.ring[slot] = n
		e.full[slot>>6] |= 1 << (slot & 63)
	case !ev.before(&nodes[t].ev):
		nodes[n] = calNode{ev: ev, next: nodes[t].next}
		nodes[t].next = n
		e.ring[slot] = n
	default: // before the tail, so the walk from the head stops at or before it
		p := &nodes[t].next
		for !ev.before(&nodes[*p].ev) {
			p = &nodes[*p].next
		}
		nodes[n] = calNode{ev: ev, next: *p}
		*p = n
	}
	e.ncal++
}

// grow adds a node to the pool and returns its index; the pool grows
// only to the calendar's high-water mark.
func (e *Engine) grow() int32 {
	if e.nodes == nil {
		e.nodes = make([]calNode, 1, calPoolMin) // the sentinel at index 0
	}
	e.nodes = append(e.nodes, calNode{})
	return int32(len(e.nodes) - 1)
}

// pop removes the earliest pending event if it fires no later than
// until, moves the clock to it and returns its callback; ok is false
// when nothing is pending or the earliest event is later. The
// calendar's earliest event heads the first non-empty bucket from
// now's, found by scanning the bitmap forward and wrapping once, and
// it is unlinked from the bucket it was found in without locating it
// a second time.
func (e *Engine) pop(until Time) (fn func(), ok bool) {
	if e.ncal > 0 {
		s := int(e.now>>calShift) & calMask
		w := s >> 6
		slot := -1
		if m := e.full[w] >> (s & 63); m != 0 {
			slot = s + bits.TrailingZeros64(m)
		} else {
			for i := 1; i <= calWords; i++ {
				w = (w + 1) & (calWords - 1)
				if m := e.full[w]; m != 0 {
					slot = w<<6 + bits.TrailingZeros64(m)
					break
				}
			}
		}
		nodes := e.nodes
		t := e.ring[slot]
		n := nodes[t].next
		nd := &nodes[n]
		if len(e.far) == 0 || !e.far[0].before(&nd.ev) {
			if nd.ev.at > until {
				return nil, false
			}
			if n == t {
				e.ring[slot] = 0
				e.full[slot>>6] &^= 1 << (slot & 63)
			} else {
				nodes[t].next = nd.next
			}
			e.now = nd.ev.at
			fn = nd.ev.fn
			nd.ev.fn = nil // drop the closure reference so the GC can collect it
			nd.next = e.free
			e.free = n
			e.ncal--
			return fn, true
		}
	}
	if len(e.far) == 0 || e.far[0].at > until {
		return nil, false
	}
	ev := e.farPop()
	e.now = ev.at
	return ev.fn, true
}

// farPush appends ev to the far heap and sifts it up. The
// hole-then-place form moves each displaced parent once instead of
// swapping.
func (e *Engine) farPush(ev event) {
	pq := append(e.far, ev)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.before(&pq[parent]) {
			break
		}
		pq[i] = pq[parent]
		i = parent
	}
	pq[i] = ev
	e.far = pq
}

// farPop removes and returns the far heap's minimum event.
func (e *Engine) farPop() event {
	pq := e.far
	root := pq[0]
	n := len(pq) - 1
	last := pq[n]
	pq[n] = event{} // drop the closure reference so the GC can collect it
	e.far = pq[:n]
	if n > 0 {
		pq = pq[:n]
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			// Smallest of up to four children.
			min := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if pq[j].before(&pq[min]) {
					min = j
				}
			}
			if !pq[min].before(&last) {
				break
			}
			pq[i] = pq[min]
			i = min
		}
		pq[i] = last
	}
	return root
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	fn, ok := e.pop(maxTime)
	if !ok {
		return false
	}
	e.nfired++
	fn()
	return true
}

// DefaultCheckpointEvery is the checkpoint cadence used when
// SetCheckpoint is given a non-nil callback with a zero interval: large
// enough that the countdown branch is noise in the event loop, small
// enough that cancellation lands within a few hundred microseconds of
// wall clock.
const DefaultCheckpointEvery = 8192

// SetCheckpoint installs fn to run every `every` fired events during Run
// and Drain. Returning false interrupts the loop — the mechanism behind
// context cancellation mid-simulation and streamed progress reporting.
// A nil fn removes the checkpoint; a zero interval with a non-nil fn
// selects DefaultCheckpointEvery (a zero interval used to silently
// disable the callback, which turned "use the default cadence" calls
// into no cancellation at all). The callback never runs mid-event and
// must not allocate if the caller relies on the kernel's 0 allocs/op
// guarantee.
func (e *Engine) SetCheckpoint(every uint64, fn func() bool) {
	if fn == nil {
		e.ckEvery, e.ckLeft, e.ckFn = 0, 0, nil
		return
	}
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	e.ckEvery, e.ckLeft, e.ckFn = every, every, fn
}

// Interrupted reports whether the last Run or Drain stopped early at a
// checkpoint. Interrupted runs leave the simulation mid-flight; their
// results are partial and must be discarded.
func (e *Engine) Interrupted() bool { return e.interrupted }

// checkpoint counts down to the next checkpoint and reports whether the
// loop should stop. Run and Drain call it only while a checkpoint is
// installed (ckEvery != 0), so the uninstrumented loop pays one
// predictable branch per event; the instrumented common case is a
// compare and a decrement.
func (e *Engine) checkpoint() (stop bool) {
	if e.ckLeft--; e.ckLeft > 0 {
		return false
	}
	e.ckLeft = e.ckEvery
	if e.ckFn() {
		return false
	}
	e.interrupted = true
	return true
}

// Run executes events until the queue is empty or the next event would
// fire after the until timestamp. It returns the time at which it stopped.
// Events exactly at the until timestamp are executed. An installed
// checkpoint may interrupt the loop early (see SetCheckpoint), in which
// case the clock is left at the last fired event rather than advanced
// to until.
func (e *Engine) Run(until Time) Time {
	e.interrupted = false
	for {
		fn, ok := e.pop(until)
		if !ok {
			break
		}
		e.nfired++
		fn()
		if e.ckEvery != 0 && e.checkpoint() {
			return e.now
		}
	}
	if e.now < until {
		e.now = until
	}
	return e.now
}

// Drain executes all remaining events regardless of time. It is intended
// for tests and for letting in-flight transactions complete after a
// measurement window closes. Like Run, an installed checkpoint may
// interrupt it early.
func (e *Engine) Drain() {
	e.interrupted = false
	for e.Step() {
		if e.ckEvery != 0 && e.checkpoint() {
			return
		}
	}
}

// Clock describes a fixed-frequency clock domain and converts between
// cycles and simulation time.
type Clock struct {
	Period Time // duration of one cycle
}

// NewClockHz builds a Clock from a frequency in hertz.
func NewClockHz(hz float64) Clock {
	return Clock{Period: Time(float64(Second)/hz + 0.5)}
}

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// Next returns the first clock edge at or after t.
func (c Clock) Next(t Time) Time {
	if c.Period <= 0 {
		return t
	}
	rem := t % c.Period
	if rem == 0 {
		return t
	}
	return t + c.Period - rem
}
