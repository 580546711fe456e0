package sim_test

import (
	"testing"

	"hmcsim/internal/sim"
)

// TestZeroEngineIsReady holds Engine to its doc: the zero value, never
// passed through NewEngine, fires same-instant, later-bucket and
// beyond-the-horizon events in (time, key) order, and drains.
func TestZeroEngineIsReady(t *testing.T) {
	var e sim.Engine
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	e.At(3*sim.Microsecond, mark("far"))
	e.At(10, mark("a"))
	e.At(2*sim.Nanosecond, mark("later"))
	e.AtKey(10, sim.ChanKey(e.AllocChanID(), 1), mark("chan"))
	e.At(10, mark("b"))
	e.Schedule(10, mark("c"))
	if e.Pending() != 6 {
		t.Fatalf("%d events pending, want 6", e.Pending())
	}
	e.Drain()
	want := []string{"a", "b", "c", "chan", "later", "far"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e.Pending() != 0 || e.Fired() != 6 || e.Now() != 3*sim.Microsecond {
		t.Fatalf("after Drain: pending %d, fired %d, now %v; want 0, 6, 3us", e.Pending(), e.Fired(), e.Now())
	}
}
