package sim

import "testing"

// TestCheckpointFiresEveryN verifies the checkpoint cadence: one
// callback per `every` fired events, none while disabled.
func TestCheckpointFiresEveryN(t *testing.T) {
	eng := NewEngine()
	var tick func()
	tick = func() { eng.Schedule(10, tick) }
	eng.Schedule(0, tick)

	calls := 0
	eng.SetCheckpoint(8, func() bool { calls++; return true })
	eng.Run(eng.Now() + 10*79) // fires 80 events
	if calls != 10 {
		t.Fatalf("80 events with every=8: %d checkpoint calls, want 10", calls)
	}
	if eng.Interrupted() {
		t.Fatal("run reported interrupted without the checkpoint requesting a stop")
	}

	eng.SetCheckpoint(0, nil)
	before := calls
	eng.Run(eng.Now() + 10*100)
	if calls != before {
		t.Fatalf("disabled checkpoint still fired (%d -> %d calls)", before, calls)
	}
}

// TestCheckpointZeroIntervalDefaults is the regression test for the
// zero-interval bug: SetCheckpoint(0, fn) with a non-nil fn used to
// silently disable the callback (ckEvery stayed 0), so callers asking
// for "the default cadence" got no cancellation checks at all. It must
// select DefaultCheckpointEvery instead.
func TestCheckpointZeroIntervalDefaults(t *testing.T) {
	eng := NewEngine()
	var tick func()
	tick = func() { eng.Schedule(10, tick) }
	eng.Schedule(0, tick)

	calls := 0
	eng.SetCheckpoint(0, func() bool { calls++; return true })
	events := uint64(3 * DefaultCheckpointEvery)
	eng.Run(Time(10 * (events - 1))) // fires exactly `events` events
	if calls != 3 {
		t.Fatalf("%d events with a zero-interval checkpoint: %d calls, want 3 (every %d)",
			events, calls, DefaultCheckpointEvery)
	}

	// A nil fn still removes the checkpoint entirely.
	eng.SetCheckpoint(0, nil)
	before := calls
	eng.Run(eng.Now() + 10*DefaultCheckpointEvery*2)
	if calls != before {
		t.Fatalf("nil checkpoint still fired (%d -> %d calls)", before, calls)
	}
}

// TestCheckpointInterruptsRun verifies that a false return stops Run at
// the checkpoint with the clock held at the last fired event, and that
// a later Run resumes cleanly.
func TestCheckpointInterruptsRun(t *testing.T) {
	eng := NewEngine()
	var tick func()
	tick = func() { eng.Schedule(10, tick) }
	eng.Schedule(0, tick)

	calls := 0
	eng.SetCheckpoint(4, func() bool { calls++; return calls < 3 })
	end := eng.Run(1_000_000)
	if !eng.Interrupted() {
		t.Fatal("run was not interrupted")
	}
	if calls != 3 {
		t.Fatalf("checkpoint ran %d times, want 3", calls)
	}
	// 12 events fired: t = 0, 10, ..., 110.
	if end != 110 || eng.Now() != 110 {
		t.Fatalf("interrupted run stopped at %v (returned %v), want 110ps", eng.Now(), end)
	}

	eng.SetCheckpoint(0, nil)
	if got := eng.Run(1000); got != 1000 || eng.Interrupted() {
		t.Fatalf("resumed run stopped at %v (interrupted=%v), want 1000ps", got, eng.Interrupted())
	}
}

// TestCheckpointInterruptsDrain verifies Drain honors the checkpoint.
func TestCheckpointInterruptsDrain(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 100; i++ {
		eng.Schedule(Time(i), fn)
	}
	eng.SetCheckpoint(16, func() bool { return false })
	eng.Drain()
	if !eng.Interrupted() {
		t.Fatal("drain was not interrupted")
	}
	if eng.Pending() != 84 {
		t.Fatalf("drain left %d events pending, want 84", eng.Pending())
	}
	eng.SetCheckpoint(0, nil)
	eng.Drain()
	if eng.Pending() != 0 || eng.Interrupted() {
		t.Fatalf("full drain left %d pending (interrupted=%v)", eng.Pending(), eng.Interrupted())
	}
}

// TestRunWithCheckpointDoesNotAllocate is the zero-cost contract of the
// observability layer at the kernel: the event loop stays 0 allocs/op
// with a checkpoint installed, and (a fortiori) with it disabled. CI's
// bench-smoke job runs this alongside the benchmarks.
func TestRunWithCheckpointDoesNotAllocate(t *testing.T) {
	for _, installed := range []bool{false, true} {
		eng := NewEngine()
		var tick func()
		tick = func() { eng.Schedule(10, tick) }
		eng.Schedule(0, tick)
		if installed {
			eng.SetCheckpoint(64, func() bool { return true })
		}
		allocs := testing.AllocsPerRun(100, func() {
			eng.Run(eng.Now() + 10*256)
		})
		if allocs != 0 {
			t.Errorf("Run with checkpoint installed=%v: %.1f allocs/op, want 0", installed, allocs)
		}
	}
}
