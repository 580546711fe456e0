// Tests for the public hmcsim API surface: the sweep fan-out, the trace
// generator, and the drivers a System embeds.
package hmcsim_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"hmcsim"
)

var ctx = context.Background()

func TestSweepPreservesOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var calls atomic.Int64
		out := hmcsim.Sweep(ctx, workers, 100, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if len(out) != 100 || calls.Load() != 100 {
			t.Fatalf("workers=%d: %d results from %d calls", workers, len(out), calls.Load())
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := hmcsim.Sweep(ctx, 4, 0, func(int) int { return 1 }); got != nil {
		t.Errorf("empty sweep returned %v", got)
	}
}

func TestSweepCancellation(t *testing.T) {
	// A sweep whose context is cancelled partway stops scheduling new
	// jobs: the first job cancels the context, so with one worker the
	// remaining 99 slots must keep their zero value.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	out := hmcsim.Sweep(cctx, 1, 100, func(i int) int {
		calls.Add(1)
		cancel()
		return i + 1
	})
	if calls.Load() != 1 {
		t.Fatalf("cancelled sweep ran %d jobs, want 1", calls.Load())
	}
	if out[0] != 1 || out[99] != 0 {
		t.Fatalf("partial results wrong: out[0]=%d out[99]=%d", out[0], out[99])
	}

	// A pre-cancelled context schedules nothing, whatever the fan-out.
	for _, workers := range []int{1, 8} {
		var n atomic.Int64
		hmcsim.Sweep(cctx, workers, 50, func(i int) int {
			n.Add(1)
			return i
		})
		if n.Load() != 0 {
			t.Errorf("workers=%d: pre-cancelled sweep ran %d jobs", workers, n.Load())
		}
	}
}

func TestSweep2CrossProduct(t *testing.T) {
	as := []int{1, 2, 3}
	bs := []string{"x", "y"}
	got := hmcsim.Sweep2(ctx, 2, as, bs, func(a int, b string) string {
		return string(rune('0'+a)) + b
	})
	want := []string{"1x", "1y", "2x", "2y", "3x", "3y"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTraceSpecGenerate(t *testing.T) {
	spec := hmcsim.TraceSpec{N: 200, Size: 64, Vaults: 2, Writes: 0.25, Seed: 3}
	a, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 200 {
		t.Fatalf("got %d requests", len(a))
	}
	writes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical specs", i)
		}
		if a[i].Size != 64 || a[i].Addr%64 != 0 {
			t.Errorf("request %d not 64B-aligned: %+v", i, a[i])
		}
		if a[i].Write {
			writes++
		}
	}
	if writes == 0 || writes == len(a) {
		t.Errorf("write mix %d/%d, want a 25%% blend", writes, len(a))
	}

	if _, err := (hmcsim.TraceSpec{N: 1, Size: 40}).Generate(); err == nil {
		t.Error("size 40 accepted, want error (not a flit multiple)")
	}
	if _, err := (hmcsim.TraceSpec{N: 1, Size: 64, Vaults: 3}).Generate(); err == nil {
		t.Error("3 vaults accepted, want error (not a power of two)")
	}
	if _, err := (hmcsim.TraceSpec{N: -1, Size: 64}).Generate(); err == nil {
		t.Error("N -1 accepted, want error")
	}
	if reqs, err := (hmcsim.TraceSpec{N: 0, Size: 64}).Generate(); err != nil || len(reqs) != 0 {
		t.Errorf("N 0: %d requests, err %v; want an empty trace", len(reqs), err)
	}
	for _, w := range []float64{-0.5, 1.7, math.NaN()} {
		if _, err := (hmcsim.TraceSpec{N: 1, Size: 64, Writes: w}).Generate(); err == nil {
			t.Errorf("write fraction %g accepted, want error (outside [0, 1])", w)
		}
	}
	for _, w := range []float64{0, 1} {
		if _, err := (hmcsim.TraceSpec{N: 1, Size: 64, Writes: w}).Generate(); err != nil {
			t.Errorf("write fraction %g rejected: %v", w, err)
		}
	}
}

// TestTraceSpecFollowsRandomTrace: a TraceSpec trace has the addresses
// System.RandomTrace draws over the same pattern and seed, whatever its
// write fraction, so hmctrace files and in-process traces agree.
func TestTraceSpecFollowsRandomTrace(t *testing.T) {
	sys := hmcsim.NewSystem(hmcsim.DefaultConfig())
	patterns := []hmcsim.PatternSpec{{}, {Vaults: 2}, {Vaults: 1}, {Banks: 1}, {Banks: 4}}
	for _, ps := range patterns {
		for _, seed := range []uint64{0, 1, 7} {
			want := sys.RandomTrace(300, 64, ps.Build(sys), seed)
			for _, writes := range []float64{0, 0.3} {
				spec := hmcsim.TraceSpec{N: 300, Size: 64, Vaults: ps.Vaults, Banks: ps.Banks, Seed: seed, Writes: writes}
				got, err := spec.Generate()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%+v: %d requests, want %d", spec, len(got), len(want))
				}
				for i := range want {
					if got[i].Addr != want[i].Addr {
						t.Errorf("%+v: request %d at %#x, RandomTrace's at %#x", spec, i, got[i].Addr, want[i].Addr)
						break
					}
				}
			}
		}
	}
}

// TestPublicDrivers runs each driver through the names a program
// outside the module sees.
func TestPublicDrivers(t *testing.T) {
	sys := hmcsim.NewSystem(hmcsim.DefaultConfig())
	g := sys.RunGUPS(hmcsim.GUPSSpec{
		Ports: 2, Size: 32, Pattern: hmcsim.AllVaults.Build(sys),
		Warmup: 2 * hmcsim.Microsecond, Window: 5 * hmcsim.Microsecond,
	})
	if g.Reads == 0 || g.Bandwidth <= 0 || g.AvgLat <= 0 {
		t.Errorf("RunGUPS: %d reads, %v, avg latency %v", g.Reads, g.Bandwidth, g.AvgLat)
	}

	spec := hmcsim.TrafficRunSpec{
		Ports: 2, Size: 64, Traffic: hmcsim.TrafficSpec{Pattern: hmcsim.TrafficZipf},
		Warmup: 2 * hmcsim.Microsecond, Window: 5 * hmcsim.Microsecond,
	}
	tr, err := hmcsim.NewSystem(hmcsim.DefaultConfig()).RunTraffic(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reads == 0 || tr.Bandwidth <= 0 || tr.AvgLat <= 0 {
		t.Errorf("RunTraffic: %d reads, %v, avg latency %v", tr.Reads, tr.Bandwidth, tr.AvgLat)
	}
	spec.Traffic.Pattern = "nope"
	if _, err := hmcsim.NewSystem(hmcsim.DefaultConfig()).RunTraffic(spec); err == nil {
		t.Error("RunTraffic accepted an unknown pattern, want an error")
	}

	reqs, err := hmcsim.TraceSpec{N: 50, Size: 32, Vaults: 1, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ports := hmcsim.NewSystem(hmcsim.DefaultConfig()).PlayStreams([][]hmcsim.Request{reqs, reqs, reqs})
	if len(ports) != 3 {
		t.Fatalf("PlayStreams returned %d ports, want 3", len(ports))
	}
	for i, p := range ports {
		if p.Mon.Reads != 50 {
			t.Errorf("port %d reads = %d, want 50", i, p.Mon.Reads)
		}
	}
}
