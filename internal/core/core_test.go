package core

import (
	"testing"

	"hmcsim/internal/host"
	"hmcsim/internal/sim"
)

func quickSpec(sys *System, size int, pat Pattern) GUPSSpec {
	return GUPSSpec{
		Ports:   9,
		Size:    size,
		Pattern: pat,
		Warmup:  10 * sim.Microsecond,
		Window:  30 * sim.Microsecond,
	}
}

func TestRunGUPSBasics(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	res := sys.RunGUPS(quickSpec(sys, 64, AllVaults()))
	if res.Reads == 0 {
		t.Fatal("no reads measured")
	}
	if res.Bandwidth.GBpsValue() <= 0 {
		t.Fatal("no bandwidth measured")
	}
	if res.AvgLat < res.MinLat || res.AvgLat > res.MaxLat {
		t.Fatalf("avg latency %v outside [%v, %v]", res.AvgLat, res.MinLat, res.MaxLat)
	}
	if res.AvgHMCLat <= 0 || res.AvgHMCLat >= res.AvgLat {
		t.Fatalf("in-cube latency %v not inside round trip %v", res.AvgHMCLat, res.AvgLat)
	}
}

// TestGUPSSpreadQueueStaysShort runs the benchmark's gups-spread
// setup: nine 128 B GUPS ports over all vaults, 30 us of warm-up and a
// 120 us window. The saturated host packet engine books its jobs
// microseconds ahead, but the controller queues only the oldest job's
// completion, so few events are left queued at the end. Queueing every
// completion at booking left 730 pending.
func TestGUPSSpreadQueueStaysShort(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	sys.RunGUPS(GUPSSpec{Ports: 9, Size: 128, Pattern: AllVaults(), Warmup: 30 * sim.Microsecond, Window: 120 * sim.Microsecond})
	if n := sys.Eng.Pending(); n > 200 {
		t.Fatalf("%d events pending after the run, want at most 200", n)
	}
}

func TestRunGUPSDeterminism(t *testing.T) {
	run := func() Result {
		sys := NewSystem(DefaultConfig())
		return sys.RunGUPS(quickSpec(sys, 32, AllVaults()))
	}
	a, b := run(), run()
	if a.Reads != b.Reads || a.AvgLat != b.AvgLat || a.MaxLat != b.MaxLat {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestRunGUPSSeedSensitivity(t *testing.T) {
	cfg := DefaultConfig()
	sysA := NewSystem(cfg)
	a := sysA.RunGUPS(quickSpec(sysA, 32, AllVaults()))
	cfg.Seed = 999
	sysB := NewSystem(cfg)
	b := sysB.RunGUPS(quickSpec(sysB, 32, AllVaults()))
	if a.Reads == b.Reads && a.AggLatEqual(b) {
		t.Fatal("different seeds produced identical traffic")
	}
	// Conclusions must still agree within a few percent.
	ra, rb := a.Bandwidth.GBpsValue(), b.Bandwidth.GBpsValue()
	if ra/rb > 1.05 || rb/ra > 1.05 {
		t.Fatalf("seed changed bandwidth conclusion: %v vs %v", ra, rb)
	}
}

// AggLatEqual is a test helper comparing latency aggregates.
func (r Result) AggLatEqual(o Result) bool {
	return r.AvgLat == o.AvgLat && r.MaxLat == o.MaxLat && r.MinLat == o.MinLat
}

func TestVaultCapObserved(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	res := sys.RunGUPS(quickSpec(sys, 32, sys.Vaults(1)))
	bw := res.Bandwidth.GBpsValue()
	if bw < 9 || bw > 10.5 {
		t.Fatalf("single-vault counted bandwidth = %.2f GB/s, want ~10", bw)
	}
}

func TestSpreadBeatsBankBound(t *testing.T) {
	sysA := NewSystem(DefaultConfig())
	all := sysA.RunGUPS(quickSpec(sysA, 128, AllVaults()))
	sysB := NewSystem(DefaultConfig())
	one := sysB.RunGUPS(quickSpec(sysB, 128, sysB.Banks(1)))
	if all.Bandwidth.GBpsValue() < 4*one.Bandwidth.GBpsValue() {
		t.Fatalf("spread (%v) not >> single bank (%v)", all.Bandwidth, one.Bandwidth)
	}
	if one.AvgLat < 2*all.AvgLat {
		t.Fatalf("single-bank latency (%v) not >> spread (%v)", one.AvgLat, all.AvgLat)
	}
}

func TestPatternBuilders(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	if got := sys.Vaults(16).Name; got != "16 vaults" {
		t.Errorf("Vaults(16).Name = %q", got)
	}
	if got := sys.Vaults(1).Name; got != "1 vault" {
		t.Errorf("Vaults(1).Name = %q", got)
	}
	if got := sys.Banks(1).Name; got != "1 bank" {
		t.Errorf("Banks(1).Name = %q", got)
	}
	if got := sys.SingleVault(7).Name; got != "vault 7" {
		t.Errorf("SingleVault(7).Name = %q", got)
	}
}

func TestRunGUPSPanicsOnBadSpec(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	for _, spec := range []GUPSSpec{
		{Ports: 0, Size: 16, Pattern: AllVaults(), Window: sim.Microsecond},
		{Ports: 10, Size: 16, Pattern: AllVaults(), Window: sim.Microsecond},
		{Ports: 1, Size: 16, Pattern: AllVaults(), Window: 0},
	} {
		spec := spec
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v did not panic", spec)
				}
			}()
			sys.RunGUPS(spec)
		}()
	}
}

func TestPortIDExhaustion(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	sys.StreamPorts(MaxPorts)
	defer func() {
		if recover() == nil {
			t.Error("10th port did not panic")
		}
	}()
	sys.RunGUPS(GUPSSpec{Ports: 1, Size: 16, Pattern: AllVaults(), Window: sim.Microsecond})
}

func TestPlayStreamsIsolatedMeasurements(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	t1 := sys.RandomTrace(30, 64, sys.SingleVault(0), 1)
	p1 := sys.PlayStreams([][]host.Request{t1})
	first := p1[0].Mon.Reads
	t2 := sys.RandomTrace(10, 64, sys.SingleVault(1), 2)
	p2 := sys.PlayStreams([][]host.Request{t2})
	if first != 30 || p2[0].Mon.Reads != 10 {
		t.Fatalf("replay counts = %d then %d, want 30 then 10", first, p2[0].Mon.Reads)
	}
}

func TestRandomTraceRespectsPattern(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	trace := sys.RandomTrace(500, 32, sys.SingleVault(9), 77)
	for _, req := range trace {
		if v := sys.Map.VaultOf(req.Addr); v != 9 {
			t.Fatalf("trace address %#x maps to vault %d, want 9", req.Addr, v)
		}
		if req.Addr%32 != 0 {
			t.Fatalf("trace address %#x not size-aligned", req.Addr)
		}
	}
}

func TestRandomTraceVaults(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	combo := []int{2, 5, 11, 14}
	trace := sys.RandomTraceVaults(2000, 64, combo, 3)
	counts := map[int]int{}
	for _, req := range trace {
		counts[sys.Map.VaultOf(req.Addr)]++
	}
	if len(counts) != 4 {
		t.Fatalf("trace covers %d vaults, want 4: %v", len(counts), counts)
	}
	for _, v := range combo {
		if counts[v] < 300 {
			t.Fatalf("vault %d underrepresented: %v", v, counts)
		}
	}
}
