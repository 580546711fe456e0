package sim

// Ring is an unbounded FIFO over a power-of-two circular buffer. It is
// the allocation-free backbone of the kernel's pipelines: Push and Pop
// are O(1) with no copying or shifting, and the backing array is reused
// forever once it has grown to the high-water mark. The stats-tracking
// Queue builds on it, and components use it directly to carry in-flight
// work through fixed-order stages (serializers, constant-latency delay
// lines) so their completion callbacks can be bound once instead of
// closing over each item.
//
// The zero value is an empty ring ready for use.
type Ring[T any] struct {
	buf  []T // len(buf) is always zero or a power of two
	head int
	n    int
}

// Len returns the current occupancy.
func (r *Ring[T]) Len() int { return r.n }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// grow doubles the backing array (minimum 8) and unrolls the ring to the
// front so index arithmetic stays a single mask.
func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size < 8 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// Pop removes and returns the head element. It panics on an empty ring;
// callers gate on Len or Empty.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop from empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // drop the reference so the GC can collect it
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Peek returns the head element without removing it.
func (r *Ring[T]) Peek() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	return r.buf[r.head], true
}

// At returns the i-th element from the head without removing it.
// It panics if i is out of range, mirroring slice semantics.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("sim: ring index out of range")
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// RemoveAt removes and returns the i-th element from the head,
// preserving the order of the rest. It shifts whichever side of the ring
// is shorter, so removals near either end are cheap.
func (r *Ring[T]) RemoveAt(i int) T {
	if i < 0 || i >= r.n {
		panic("sim: ring index out of range")
	}
	mask := len(r.buf) - 1
	v := r.buf[(r.head+i)&mask]
	var zero T
	if i < r.n-1-i {
		// Shift the head segment [0, i) one slot toward the tail.
		for j := i; j > 0; j-- {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j-1)&mask]
		}
		r.buf[r.head] = zero
		r.head = (r.head + 1) & mask
	} else {
		// Shift the tail segment (i, n) one slot toward the head.
		for j := i; j < r.n-1; j++ {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
		}
		r.buf[(r.head+r.n-1)&mask] = zero
	}
	r.n--
	return v
}
