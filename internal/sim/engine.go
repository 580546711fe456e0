// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is measured in integer picoseconds (type Time). Events scheduled for
// the same instant fire in the order they were scheduled, which makes every
// simulation in this repository bit-for-bit reproducible for a given seed.
//
// The kernel is deliberately minimal: an Engine owns a priority queue of
// events, and components interact by scheduling closures. Higher-level
// building blocks (bounded queues, busy servers, token pools) live in the
// other files of this package.
//
// The kernel is also deliberately allocation-free on its steady-state hot
// path: the event queue is a hand-specialized 4-ary heap of event structs
// (no container/heap, no interface boxing), and components that wake up
// repeatedly bind their callback once in a Timer instead of allocating a
// closure per wakeup.
package sim

import "fmt"

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

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

// Engine is a discrete-event simulation kernel.
// The zero value is ready to use.
//
// The event queue is a 4-ary min-heap stored in a flat slice. Compared to
// the binary heap behind container/heap it does half the sift-down levels
// (better cache behavior on the wide hot levels), and being typed it
// avoids the interface{} boxing allocation container/heap pays on every
// Push as well as the Less/Swap indirect calls on every sift step.
type Engine struct {
	pq     []event
	now    Time
	seq    uint64
	nfired uint64
	lined  int // events waiting behind the heads of lines (see Line)

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

// Pending returns the number of scheduled-but-unfired events, counting
// those that wait behind the head of a Line as well as those in the heap.
func (e *Engine) Pending() int { return len(e.pq) + e.lined }

// Schedule runs fn after delay. A negative delay is treated as zero.
//
//hmcsim:hotpath
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// scheduleInPast reports the broken-model error out of line: the panic
// path is cold by definition, and hoisting it keeps fmt (and the
// boxing its arguments imply) out of the annotated scheduling paths.
//
//go:noinline
func scheduleInPast(t, now Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, now))
}

// At runs fn at absolute time t. Scheduling in the past is an error
// that indicates a broken component model, so it panics.
//
//hmcsim:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		scheduleInPast(t, e.now)
	}
	e.seq++
	e.push(event{at: t, key: e.seq, fn: fn})
}

// AtKey runs fn at absolute time t under an explicit ordering key
// (built with ChanKey). Channels use it so that same-instant delivery
// order depends only on the model's wiring, never on when the event
// was scheduled. The caller must keep (t, key) pairs unique.
//
//hmcsim:hotpath
func (e *Engine) AtKey(t Time, key uint64, fn func()) {
	if t < e.now {
		scheduleInPast(t, e.now)
	}
	e.push(event{at: t, key: key, fn: fn})
}

// push appends ev and sifts it up. The hole-then-place form moves each
// displaced parent once instead of swapping.
//
//hmcsim:hotpath
func (e *Engine) push(ev event) {
	pq := append(e.pq, ev)
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
	e.pq = pq
}

// pop removes and returns the minimum event.
//
//hmcsim:hotpath
func (e *Engine) pop() event {
	pq := e.pq
	root := pq[0]
	n := len(pq) - 1
	last := pq[n]
	pq[n] = event{} // drop the closure reference so the GC can collect it
	e.pq = pq[:n]
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
//
//hmcsim:hotpath
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.nfired++
	ev.fn()
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

// checkpoint counts down to the next installed checkpoint and reports
// whether the loop should stop. Hot-path shape: the common case is two
// compares and a decrement.
//
//hmcsim:hotpath
func (e *Engine) checkpoint() (stop bool) {
	if e.ckEvery == 0 {
		return false
	}
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
	for len(e.pq) > 0 && e.pq[0].at <= until {
		e.Step()
		if e.checkpoint() {
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
		if e.checkpoint() {
			return
		}
	}
}

// Timer is a reusable event handle: the callback is bound once at
// construction, so rescheduling the same wakeup — a port's clock tick, a
// router's delivery hop, a bank's ready edge — costs one heap push and no
// allocation. Components that used to write eng.Schedule(d, func() { ... })
// on their hot path hold a Timer instead.
//
// A Timer may be scheduled while already pending; each schedule is an
// independent firing, exactly as if the function were passed to
// Engine.At directly.
type Timer struct {
	eng *Engine
	fn  func()
}

// NewTimer binds fn to a reusable handle on e.
func (e *Engine) NewTimer(fn func()) *Timer { return &Timer{eng: e, fn: fn} }

// At schedules the timer's callback at absolute time t.
//
//hmcsim:hotpath
func (t *Timer) At(at Time) { t.eng.At(at, t.fn) }

// After schedules the timer's callback delay from now. A negative delay
// is treated as zero.
//
//hmcsim:hotpath
func (t *Timer) After(delay Time) { t.eng.Schedule(delay, t.fn) }

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
