package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/core"
	"hmcsim/internal/ddr"
	"hmcsim/internal/sim"
)

// devicePoint is one device's row of the comparison.
type devicePoint struct {
	device     string
	idleLatNs  float64
	randomGBps float64
}

// ddrComparisonResult backs the paper's qualitative claims against
// traditional DDRx: the HMC's packetized path has a higher idle latency
// than a synchronous DDR channel, but vastly higher bandwidth under
// parallel random traffic. It holds the DDR channel's row, then the HMC
// device's.
type ddrComparisonResult []devicePoint

// ddrComparison measures both devices on the same 64 B workloads, one
// sweep point each.
func ddrComparison(ctx context.Context, o Options) ddrComparisonResult {
	devices := []func(context.Context, Options, int) devicePoint{ddrChannel, hmcDevice}
	return hmcsim.Sweep(ctx, o.Workers, len(devices), func(i int) devicePoint {
		return devices[i](ctx, o, 64)
	})
}

// ddrChannel measures a single synchronous DDR3-1600 channel: one
// isolated read against an idle channel, then back-to-back random reads
// until a fixed request count drains, payload bytes over elapsed
// simulated time.
func ddrChannel(ctx context.Context, o Options, size int) devicePoint {
	p := devicePoint{device: "DDR3-1600 channel"}

	idle := o.NewEngineCtx(ctx)
	ch := ddr.New(idle, ddr.DefaultConfig())
	idle.Schedule(0, func() {
		ch.TryAccess(&ddr.Request{Addr: 0x40, Size: size}, func(r *ddr.Request) {
			p.idleLatNs = r.Done.Nanoseconds()
		})
	})
	idle.Drain()

	eng := o.NewEngineCtx(ctx)
	c := ddr.New(eng, ddr.DefaultConfig())
	rng := sim.NewRand(o.Seed + 9)
	completed := 0
	n := 20000
	if o.Quick {
		n = 5000
	}
	var send func(i int)
	send = func(i int) {
		if i >= n {
			return
		}
		req := &ddr.Request{Addr: rng.Uint64() & (1<<32 - 1) &^ uint64(size-1), Size: size}
		if !c.TryAccess(req, func(*ddr.Request) { completed++ }) {
			c.Notify(func() { send(i) })
			return
		}
		send(i + 1)
	}
	eng.Schedule(0, func() { send(0) })
	eng.Drain()
	p.randomGBps = float64(completed*size) / eng.Now().Seconds() / 1e9
	return p
}

// hmcDevice measures the HMC 1.1 cube behind the AC-510 host model. Its
// idle latency is one read less the fixed FPGA pipeline, which is how
// the paper isolates the 100-180 ns HMC contribution from the 547 ns
// infrastructure floor; its random bandwidth comes from nine GUPS ports
// of random reads, payload bytes through the host infrastructure.
func hmcDevice(ctx context.Context, o Options, size int) devicePoint {
	p := devicePoint{device: "HMC 1.1 (device)"}

	sys := o.NewSystemCtx(ctx)
	trace := sys.RandomTrace(1, size, sys.SingleVault(0), 1)
	ports := sys.PlayStreams([][]hmcsim.Request{trace})
	floor := sys.Cfg.Host.TxLatency + sys.Cfg.Host.RxLatency
	p.idleLatNs = (ports[0].Mon.AvgLat() - floor).Nanoseconds()

	gups := o.NewSystemCtx(ctx)
	r := gups.RunGUPS(core.GUPSSpec{
		Ports: 9, Size: size, Pattern: core.AllVaults(),
		Warmup: o.Warmup(), Window: o.Window(),
	})
	p.randomGBps = float64(r.Reads*uint64(size)) / r.Window.Seconds() / 1e9
	return p
}

// result renders idle latency and random bandwidth per device, plus the
// cube-internal ceiling: 16 vaults times the per-vault TSV bandwidth,
// which the measured figure never reaches because the two half-width
// links and the FPGA controller cap it first.
func (rows ddrComparisonResult) result() hmcsim.Result {
	idle := hmcsim.Series{Name: "idle-latency", Unit: "ns"}
	random := hmcsim.Series{Name: "random-read-bandwidth", Unit: "GB/s"}
	for _, row := range rows {
		idle.Points = append(idle.Points, hmcsim.Point{Label: row.device, X: 64, Y: row.idleLatNs})
		random.Points = append(random.Points, hmcsim.Point{Label: row.device, X: 64, Y: row.randomGBps})
	}
	internalGBps := 16 * hmcsim.DefaultConfig().HMC.Vault.TSVBandwidth.GBpsValue()
	internal := hmcsim.Series{Name: "hmc-internal-bandwidth", Unit: "GB/s",
		Points: []hmcsim.Point{{Label: "HMC 1.1 (16 vaults)", X: 64, Y: internalGBps}}}

	d, h := rows[0], rows[1]
	t := table{header: []string{"Metric", d.device, h.device}}
	t.addRow("Idle 64B read latency",
		fmt.Sprintf("%.0f ns", d.idleLatNs),
		fmt.Sprintf("%.0f ns", h.idleLatNs))
	t.addRow("Random 64B read data bandwidth",
		fmt.Sprintf("%.2f GB/s", d.randomGBps),
		fmt.Sprintf("%.2f GB/s", h.randomGBps))
	t.addRow("Aggregate internal bandwidth",
		fmt.Sprintf("%.2f GB/s", d.randomGBps),
		fmt.Sprintf("%.2f GB/s (16 vaults)", internalGBps))
	speedup := 0.0
	if d.randomGBps > 0 {
		speedup = h.randomGBps / d.randomGBps
	}
	return hmcsim.Result{
		Series: []hmcsim.Series{idle, random, internal},
		Text: fmt.Sprintf("DDR baseline comparison (HMC random-bandwidth advantage: %.1fx)\n%s",
			speedup, t.String()),
	}
}
