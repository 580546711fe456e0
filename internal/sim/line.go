package sim

import "fmt"

// Line is a chain of events on one engine whose times never decrease: a
// server's completions, or the exits of a constant-latency pipeline.
// Such a chain's firing order is fixed when its events are scheduled, so
// re-sorting it in the heap is wasted work. Only the head of a line sits
// in the engine's heap; the rest wait in FIFO order, and firing the head
// promotes the next item. The heap therefore holds one entry per busy
// line instead of one per item in flight.
//
// Each item takes the engine's next sequence number as its ordering key
// when it is scheduled, exactly as Engine.At would, and keeps it while it
// waits. Every event so fires at the same (time, key) as under At, in the
// same order; only the heap work changes. (Assigning the key on promotion
// instead would reorder same-instant ties with events scheduled in
// between.)
type Line struct {
	eng  *Engine
	q    Ring[event] // unfired items; the head's (at, key) is also in the heap
	tail Time        // time of the latest item scheduled
	fire func()      // l.fireHead, bound once so pushes do not allocate
}

// NewLine returns an empty line on e.
func (e *Engine) NewLine() *Line {
	l := &Line{}
	l.init(e)
	return l
}

func (l *Line) init(e *Engine) {
	l.eng = e
	l.fire = l.fireHead
}

// lineBeforeTail reports an out-of-order line item out of line, as
// scheduleInPast does for the engine.
//
//go:noinline
func lineBeforeTail(t, tail Time) {
	panic(fmt.Sprintf("sim: line event at %v before the line's tail %v", t, tail))
}

// At runs fn at absolute time t, after every item already on the line.
// Like Engine.At it panics on a time in the past; it also panics on a
// time before the line's latest item, which would break FIFO order.
//
//hmcsim:hotpath
func (l *Line) At(t Time, fn func()) {
	e := l.eng
	if t < e.now {
		scheduleInPast(t, e.now)
	}
	if t < l.tail {
		lineBeforeTail(t, l.tail)
	}
	l.tail = t
	e.seq++
	if l.q.Empty() {
		e.push(event{at: t, key: e.seq, fn: l.fire})
	} else {
		e.lined++
	}
	l.q.Push(event{at: t, key: e.seq, fn: fn})
}

// After runs fn delay from now, after every item already on the line. A
// negative delay is treated as zero.
//
//hmcsim:hotpath
func (l *Line) After(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	l.At(l.eng.now+delay, fn)
}

// fireHead is the heap's callback for the line's head. It promotes the
// next item into the heap under the key that item reserved, and only
// then runs the head's callback, so a callback that schedules on this
// line appends behind the promoted item instead of becoming a second
// head.
//
//hmcsim:hotpath
func (l *Line) fireHead() {
	ev := l.q.Pop()
	if !l.q.Empty() {
		next := l.q.At(0)
		l.eng.lined--
		l.eng.push(event{at: next.at, key: next.key, fn: l.fire})
	}
	ev.fn()
}
