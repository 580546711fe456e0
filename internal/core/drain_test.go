package core

import (
	"fmt"
	"testing"

	"hmcsim/internal/addr"
	"hmcsim/internal/host"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// checkDrained asserts the conservation laws every system obeys once its
// ports have stopped and sys.Eng.Drain has returned: every request sent
// was answered, every request link's tokens are back, the cube holds no
// transaction, no message is left in a NoC router or channel (so every
// bridge credit has come back), and no vault holds a request, a
// response or a TSV slot.
func checkDrained(t *testing.T, sys *System) {
	t.Helper()
	if s, r := sys.Ctrl.RequestsSent(), sys.Ctrl.ResponsesReceived(); s != r {
		t.Errorf("%d requests sent, %d responses received", s, r)
	}
	for l := 0; l < sys.HMC.Links(); l++ {
		if got, want := sys.HMC.ReqDir(l).TokensAvailable(), sys.Cfg.HMC.ReqRxBufFlits; got != want {
			t.Errorf("link %d: %d request tokens free, want %d", l, got, want)
		}
	}
	if n := sys.HMC.InFlight(); n != 0 {
		t.Errorf("%d transactions in flight in the cube", n)
	}
	if n := sys.HMC.Fabric().QueuedMessages(); n != 0 {
		t.Errorf("%d messages left in NoC routers and channels (a bridge credit not back counts as one)", n)
	}
	for i := 0; i < addr.Vaults; i++ {
		v := sys.HMC.Vault(i)
		if v.RecvQueued() != 0 || v.Queued() != 0 || v.OutQueued() != 0 || v.TSVHeld() != 0 {
			t.Errorf("vault %d: %d buffered, %d in bank queues, %d waiting to leave, %d TSV slots held",
				i, v.RecvQueued(), v.Queued(), v.OutQueued(), v.TSVHeld())
		}
	}
}

// TestBankBoundGUPSDrains runs bank-bound GUPS, where hundreds of
// requests wait for link tokens on the host (Figure 14), and checks
// conservation after the drain. With ReadWriteMix, 9-flit writes fail
// their send attempts and re-park during token wake-ups.
func TestBankBoundGUPSDrains(t *testing.T) {
	for _, k := range []struct {
		name string
		kind traffic.RequestKind
	}{{"reads", traffic.ReadOnly}, {"mix", traffic.ReadWriteMix}} {
		for _, banks := range []int{1, 2, 16} {
			t.Run(fmt.Sprintf("%s/banks%d", k.name, banks), func(t *testing.T) {
				sys := NewSystem(DefaultConfig())
				res := sys.RunGUPS(GUPSSpec{
					Ports: 9, Size: 128, Kind: k.kind, Pattern: sys.Banks(banks),
					Warmup: 5 * sim.Microsecond, Window: 20 * sim.Microsecond,
				})
				if res.Reads == 0 {
					t.Fatal("no reads measured")
				}
				sys.Eng.Drain()
				checkDrained(t, sys)
			})
		}
	}
}

// TestTrafficDrains checks conservation after an open-loop traffic run
// with writes, drained once its ports stop.
func TestTrafficDrains(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	res, err := sys.RunTraffic(TrafficRunSpec{
		Ports: 4, Size: 64,
		Traffic: traffic.Spec{Pattern: traffic.PatternHotspot, WriteFraction: 0.3,
			Discipline: traffic.DisciplineOpen, RateGBps: 3},
		Warmup: 5 * sim.Microsecond, Window: 20 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads+res.Writes == 0 {
		t.Fatal("no traffic measured")
	}
	sys.Eng.Drain()
	checkDrained(t, sys)
}

// TestPlayStreamsDrains checks conservation after trace playback, which
// drains on its own, over one vault and over all of them.
func TestPlayStreamsDrains(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	sys.PlayStreams([][]host.Request{
		sys.RandomTrace(400, 128, sys.SingleVault(3), 1),
		sys.RandomTrace(400, 64, AllVaults(), 2),
		sys.RandomTrace(400, 32, sys.Banks(1), 3),
	})
	checkDrained(t, sys)
}
