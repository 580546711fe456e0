package sim

import (
	"strconv"
	"testing"
)

// Kernel micro-benchmarks. The acceptance bar for the allocation-free
// kernel is 0 allocs/op on every steady-state path here: event
// schedule/fire, self-rescheduling ticks, and queue push/pop at any
// occupancy.
// Run with: go test -bench=. -benchmem ./internal/sim/...

// BenchmarkEngineScheduleFire measures one schedule + one fire against a
// fixed number of pending events, the kernel's innermost loop. In the
// pendingN cases every event is scheduled the same delay ahead, so each
// push appends to one calendar bucket. The mix cases draw each delay
// from the model's weighted mix (modelDelays), so pushes also land in
// the middle of a bucket and, rarely, beyond the horizon.
func BenchmarkEngineScheduleFire(b *testing.B) {
	for _, pending := range []int{1, 64, 4096} {
		b.Run(benchName("pending", pending), func(b *testing.B) {
			eng := NewEngine()
			fn := func() {}
			for i := 0; i < pending; i++ {
				eng.Schedule(Time(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Schedule(Time(pending), fn)
				eng.Step()
			}
		})
	}
	for _, pending := range []int{64, 1024} {
		b.Run(benchName("mix/pending", pending), func(b *testing.B) {
			eng := NewEngine()
			fn := func() {}
			r := NewRand(1)
			draws := modelDelayDraws()
			delay := func() Time { return draws[r.Intn(len(draws))] }
			for i := 0; i < pending; i++ {
				eng.Schedule(delay(), fn)
			}
			// Warm up until the node pool and the far heap have reached
			// their high-water marks.
			for i := 0; i < 64*pending; i++ {
				eng.Schedule(delay(), fn)
				eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Schedule(delay(), fn)
				eng.Step()
			}
		})
	}
}

// BenchmarkEngineTick measures a self-rescheduling callback bound once,
// the pattern the host ports use for their clock ticks: one queue push
// and one fire per tick, no closure per wakeup.
func BenchmarkEngineTick(b *testing.B) {
	eng := NewEngine()
	var tick func()
	tick = func() { eng.Schedule(100, tick) }
	eng.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkEngineRunCheckpoint measures the event loop through Run with
// the observability checkpoint disabled (the default: one predictable
// branch per event) and installed but idle — both must stay 0 allocs/op.
func BenchmarkEngineRunCheckpoint(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			eng := NewEngine()
			var tick func()
			tick = func() { eng.Schedule(100, tick) }
			eng.Schedule(0, tick)
			if mode == "on" {
				eng.SetCheckpoint(64, func() bool { return true })
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(eng.Now() + 100)
			}
		})
	}
}

// BenchmarkQueuePushPop measures one push + one pop at a fixed standing
// occupancy. The slice-based Queue paid an O(occupancy) copy per pop;
// the ring pays O(1) at any depth.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, occ := range []int{0, 16, 128, 1024} {
		b.Run(benchName("occ", occ), func(b *testing.B) {
			q := NewQueue[int](0)
			for i := 0; i < occ; i++ {
				q.Push(i)
			}
			// One warm-up cycle so the ring reaches its steady-state size
			// (occupancy+1) before measurement starts.
			q.Push(0)
			q.Pop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(i)
				q.Pop()
			}
		})
	}
}

// BenchmarkQueueRemoveAt measures the out-of-order removal the vault
// dispatcher uses, at the queue head (best case: one slot shift).
func BenchmarkQueueRemoveAt(b *testing.B) {
	q := NewQueue[int](0)
	for i := 0; i < 128; i++ {
		q.Push(i)
	}
	q.Push(0)
	q.RemoveAt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.RemoveAt(0)
	}
}

// BenchmarkRingPushPop measures the raw ring primitive behind Queue and
// the component pipelines.
func BenchmarkRingPushPop(b *testing.B) {
	var r Ring[int]
	for i := 0; i < 8; i++ {
		r.Push(i)
	}
	// One warm-up cycle grows the full ring to its steady-state size.
	r.Push(0)
	r.Pop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(i)
		r.Pop()
	}
}

// BenchmarkTokenPoolNotifyRelease measures the blocked-retry cycle:
// a waiter registers, Release fires it, and it re-registers. The waiter
// array is recycled, so the steady state does not allocate.
func BenchmarkTokenPoolNotifyRelease(b *testing.B) {
	p := NewTokenPool(1)
	var again func()
	again = func() {
		if !p.TryAcquire(1) {
			p.Notify(again)
		}
	}
	p.TryAcquire(1)
	p.Notify(again)
	// One warm-up cycle gives the waiters' second array its first slot.
	p.Release(1)
	p.Notify(again)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Release(1) // fires the waiter, which re-acquires and blocks anew
		p.Notify(again)
	}
}

// TestPrimitivesDoNotAllocate pins the benchmarks' 0 allocs/op for the
// queueing primitives once they have grown to their working size: ring
// and queue push/pop, out-of-order removal, and a token pool's acquire,
// park and release that fires the parked waiter.
func TestPrimitivesDoNotAllocate(t *testing.T) {
	var r Ring[int]
	q := NewQueue[int](0)
	for i := 0; i < 16; i++ {
		r.Push(i)
		q.Push(i)
	}
	p := NewTokenPool(1)
	fired := 0
	waiter := func() { fired++ }
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Ring.Push+Pop", func() { r.Push(0); r.Pop() }},
		{"Queue.Push+Pop", func() { q.Push(0); q.Pop() }},
		{"Queue.Push+RemoveAt", func() { q.Push(0); q.RemoveAt(q.Len() / 2) }},
		{"TokenPool.TryAcquire+Notify+Release", func() { p.TryAcquire(1); p.Notify(waiter); p.Release(1) }},
	} {
		c.op() // grow to the working size
		if allocs := testing.AllocsPerRun(100, c.op); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
	if fired != 102 {
		t.Errorf("Release fired the parked waiter %d times in 102 cycles", fired)
	}
}

func benchName(prefix string, n int) string { return prefix + strconv.Itoa(n) }
