package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](4)
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push accepted above capacity")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueUnbounded(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 10000; i++ {
		if !q.Push(i) {
			t.Fatalf("unbounded queue rejected push %d", i)
		}
	}
	if q.Len() != 10000 {
		t.Fatalf("len = %d, want 10000", q.Len())
	}
}

func TestQueuePeekAndRemoveAt(t *testing.T) {
	q := NewQueue[string](0)
	q.Push("a")
	q.Push("b")
	q.Push("c")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %q, want a", v)
	}
	if v := q.RemoveAt(1); v != "b" {
		t.Fatalf("RemoveAt(1) = %q, want b", v)
	}
	if v, _ := q.Pop(); v != "a" {
		t.Fatalf("pop = %q, want a", v)
	}
	if v, _ := q.Pop(); v != "c" {
		t.Fatalf("pop = %q, want c", v)
	}
}

// TestQueueConservation is a property test: any sequence of pushes and pops
// conserves elements and preserves FIFO order.
func TestQueueConservation(t *testing.T) {
	f := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw % 16)
		q := NewQueue[int](capacity)
		next := 0
		wantHead := 0
		for _, isPush := range ops {
			if isPush {
				if q.Push(next) {
					next++
				} else if capacity == 0 || q.Len() != capacity {
					return false // rejected push while not full
				}
			} else {
				v, ok := q.Pop()
				if ok {
					if v != wantHead {
						return false // FIFO violated
					}
					wantHead++
				} else if q.Len() != 0 {
					return false
				}
			}
		}
		return q.Len() == next-wantHead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTokenPool(t *testing.T) {
	p := NewTokenPool(10)
	if !p.TryAcquire(7) {
		t.Fatal("acquire 7 of 10 failed")
	}
	if p.TryAcquire(4) {
		t.Fatal("acquire 4 of 3 succeeded")
	}
	if p.Available() != 3 {
		t.Fatalf("available = %d, want 3", p.Available())
	}
	woken := false
	p.Notify(func() { woken = true })
	p.Release(2)
	if !woken {
		t.Fatal("waiter not woken on release")
	}
	if p.Available() != 5 {
		t.Fatalf("available = %d, want 5", p.Available())
	}
}

// TestTokenPoolReRegisterDuringCallback covers the retry-and-reblock
// pattern every component uses: a waiter that fails to acquire inside
// its callback re-registers for the next Release. The re-registration
// must land in the next wave (not fire in the current one), must
// actually fire on the following Release, and must survive the waiter
// array being recycled between waves.
func TestTokenPoolReRegisterDuringCallback(t *testing.T) {
	p := NewTokenPool(1)
	if !p.TryAcquire(1) {
		t.Fatal("initial acquire failed")
	}
	fired := 0
	var retry func()
	retry = func() {
		fired++
		// Tokens are contended again by the time the waiter runs; block
		// and re-register, exactly like a port blocked on tags.
		if !p.TryAcquire(1) {
			t.Fatal("waiter could not acquire the released token")
		}
		if fired < 3 {
			p.Notify(retry)
		}
	}
	p.Notify(retry)
	for want := 1; want <= 3; want++ {
		p.Release(1)
		if fired != want {
			t.Fatalf("after release %d: fired = %d, want %d (re-registration lost or fired early)", want, fired, want)
		}
	}
	p.Release(1) // no waiters registered anymore; must be a no-op
	if fired != 3 {
		t.Fatalf("release with no waiters fired a callback: fired = %d", fired)
	}
}

// TestTokenPoolNotifyOrder: waiters fire in registration order, and a
// waiter registered during a callback waits for the next Release.
func TestTokenPoolNotifyOrder(t *testing.T) {
	p := NewTokenPool(1)
	p.TryAcquire(1)
	var order []int
	p.Notify(func() {
		order = append(order, 1)
		p.Notify(func() { order = append(order, 3) })
	})
	p.Notify(func() { order = append(order, 2) })
	p.Release(1)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("first wave = %v, want [1 2]", order)
	}
	p.TryAcquire(1)
	p.Release(1)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("second wave = %v, want [1 2 3]", order)
	}
}

func TestTokenPoolOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	p := NewTokenPool(1)
	p.Release(1)
}

func TestTokenPoolProperty(t *testing.T) {
	// Available never exceeds total or goes negative under random traffic.
	f := func(ops []uint8) bool {
		p := NewTokenPool(8)
		held := 0
		for _, op := range ops {
			n := int(op%4) + 1
			if op&0x80 == 0 {
				if p.TryAcquire(n) {
					held += n
				}
			} else if held >= n {
				p.Release(n)
				held -= n
			}
			if p.Available() < 0 || p.Available() > p.Total() {
				return false
			}
			if p.Available()+held != p.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestServerSerializes(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var done []Time
	e.Schedule(0, func() {
		s.Reserve(10*Nanosecond, func() { done = append(done, e.Now()) })
		s.Reserve(10*Nanosecond, func() { done = append(done, e.Now()) })
	})
	e.Drain()
	if len(done) != 2 || done[0] != 10*Nanosecond || done[1] != 20*Nanosecond {
		t.Fatalf("completions = %v, want [10ns 20ns]", done)
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	e.Schedule(0, func() { s.Reserve(5*Nanosecond, nil) })
	e.Schedule(100*Nanosecond, func() {
		end := s.Reserve(5*Nanosecond, nil)
		if end != 105*Nanosecond {
			t.Errorf("reservation after idle ends at %v, want 105ns", end)
		}
	})
	e.Drain()
	// Busy 10ns of 105ns.
	u := s.Utilization(105 * Nanosecond)
	if u < 0.09 || u > 0.10 {
		t.Fatalf("utilization = %v, want ~0.0952", u)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRandUniformity(t *testing.T) {
	// Rough chi-square-free check: each of 8 buckets gets 10-15% of draws.
	r := NewRand(123)
	const n = 80000
	var buckets [8]int
	for i := 0; i < n; i++ {
		buckets[r.Intn(8)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.15 {
			t.Fatalf("bucket %d has fraction %v, want ~0.125", i, frac)
		}
	}
}
