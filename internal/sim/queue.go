package sim

// Queue is a bounded FIFO used to model hardware buffers.
//
// Queue is generic over the element type; the simulator mostly stores
// packet pointers in queues. The storage is a Ring, so Pop and RemoveAt
// are O(1)/O(shift-to-nearest-end) instead of the O(n) slice shift the
// original implementation paid on every dequeue, and steady-state
// operation does not allocate.
type Queue[T any] struct {
	ring     Ring[T]
	capacity int
}

// NewQueue returns a FIFO with the given capacity. A capacity <= 0 means
// unbounded.
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{capacity: capacity}
}

// Cap returns the configured capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.capacity }

// Len returns the current occupancy.
func (q *Queue[T]) Len() int { return q.ring.Len() }

// Full reports whether the queue cannot accept another element.
func (q *Queue[T]) Full() bool {
	return q.capacity > 0 && q.ring.Len() >= q.capacity
}

// Empty reports whether the queue holds no elements.
func (q *Queue[T]) Empty() bool { return q.ring.Empty() }

// Push appends v and reports whether it was accepted. Callers use the
// boolean to model back-pressure; a false return leaves the queue unchanged.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.ring.Push(v)
	return true
}

// Pop removes and returns the head element. The boolean is false when the
// queue is empty.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.ring.Empty() {
		return zero, false
	}
	return q.ring.Pop(), true
}

// Peek returns the head element without removing it.
func (q *Queue[T]) Peek() (T, bool) { return q.ring.Peek() }

// At returns the i-th element from the head without removing it.
// It panics if i is out of range, mirroring slice semantics.
func (q *Queue[T]) At(i int) T { return q.ring.At(i) }

// RemoveAt removes and returns the i-th element from the head.
func (q *Queue[T]) RemoveAt(i int) T { return q.ring.RemoveAt(i) }

// Waiters is a list of parked callbacks with an allocation-free
// fire-and-re-register cycle: Fire drains the current registrations and
// runs them in order, callbacks may re-register (landing in the next
// wave, backed by a recycled array instead of a fresh allocation per
// cycle), and a callback may re-entrantly Fire. TokenPool uses it, as
// do the host tag pools and the vault accept list.
type Waiters struct {
	list  []func()
	spare []func() // drained array, reused to avoid churn
}

// Add registers fn for the next Fire.
func (w *Waiters) Add(fn func()) { w.list = append(w.list, fn) }

// Empty reports whether no callbacks are registered.
func (w *Waiters) Empty() bool { return len(w.list) == 0 }

// Fire runs the registered callbacks in registration order. Callbacks
// registered while firing wait for the next Fire.
func (w *Waiters) Fire() {
	if len(w.list) == 0 {
		return
	}
	l := w.list
	w.list, w.spare = w.spare[:0], nil
	for i, fn := range l {
		l[i] = nil
		fn()
	}
	if w.spare == nil { // not reclaimed by a re-entrant Fire
		w.spare = l[:0]
	}
}

// TokenPool models credit-based flow control: a fixed number of tokens that
// are acquired before injecting into a buffer and released when the
// consumer drains it.
type TokenPool struct {
	total     int
	available int
	waiters   Waiters
}

// NewTokenPool returns a pool holding n tokens.
func NewTokenPool(n int) *TokenPool {
	return &TokenPool{total: n, available: n}
}

// Total returns the configured token count.
func (p *TokenPool) Total() int { return p.total }

// Available returns the number of free tokens.
func (p *TokenPool) Available() int { return p.available }

// TryAcquire takes n tokens if they are all available.
func (p *TokenPool) TryAcquire(n int) bool {
	if n > p.available {
		return false
	}
	p.available -= n
	return true
}

// Release returns n tokens and wakes waiters registered with Notify.
// Waiters registered during a callback — the usual retry-and-reblock
// pattern — wait for the next Release.
func (p *TokenPool) Release(n int) {
	p.available += n
	if p.available > p.total {
		panic("sim: token pool over-released")
	}
	p.waiters.Fire()
}

// Notify registers fn to run on the next Release. Components use this to
// retry a blocked injection without polling.
func (p *TokenPool) Notify(fn func()) { p.waiters.Add(fn) }
