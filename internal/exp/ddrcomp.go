package exp

import (
	"context"
	"fmt"

	"hmcsim"
)

// backendPoint is one device's row of the comparison sweep.
type backendPoint struct {
	backend    string
	idleLatNs  float64
	randomGBps float64
}

// ddrComparisonResult backs the paper's qualitative claims against
// traditional DDRx: the HMC's packetized path has a higher idle latency
// than a synchronous DDR channel, but vastly higher bandwidth under
// parallel random traffic. It holds one row per compared device, in
// hmcsim.ComparisonBackends order: DDR first, then the HMC device.
type ddrComparisonResult []backendPoint

// ddrComparison measures every comparison backend on the same 64 B
// workloads — a plain sweep over the hmcsim.Backend list.
func ddrComparison(ctx context.Context, o Options) ddrComparisonResult {
	backends := hmcsim.ComparisonBackends()
	return hmcsim.Sweep(ctx, o.Workers, len(backends), func(i int) backendPoint {
		b := backends[i]
		return backendPoint{
			backend:    b.Name(),
			idleLatNs:  b.IdleLatencyNs(ctx, o, 64),
			randomGBps: b.RandomReadGBps(ctx, o, 64),
		}
	})
}

// result renders idle latency and random bandwidth per backend, plus
// the cube-internal ceiling: 16 vaults x 10 GB/s, which the measured
// figure never reaches because the two half-width links and the FPGA
// controller cap it first.
func (rows ddrComparisonResult) result() hmcsim.Result {
	idle := hmcsim.Series{Name: "idle-latency", Unit: "ns"}
	random := hmcsim.Series{Name: "random-read-bandwidth", Unit: "GB/s"}
	for _, row := range rows {
		idle.Points = append(idle.Points, hmcsim.Point{Label: row.backend, X: 64, Y: row.idleLatNs})
		random.Points = append(random.Points, hmcsim.Point{Label: row.backend, X: 64, Y: row.randomGBps})
	}
	internalGBps := hmcsim.HMCDevice{}.InternalGBps()
	internal := hmcsim.Series{Name: "hmc-internal-bandwidth", Unit: "GB/s",
		Points: []hmcsim.Point{{Label: "HMC 1.1 (16 vaults)", X: 64, Y: internalGBps}}}

	ddr, hmc := rows[0], rows[1]
	t := table{header: []string{"Metric", "DDR3-1600 channel", "HMC 1.1 (device)"}}
	t.addRow("Idle 64B read latency",
		fmt.Sprintf("%.0f ns", ddr.idleLatNs),
		fmt.Sprintf("%.0f ns", hmc.idleLatNs))
	t.addRow("Random 64B read data bandwidth",
		fmt.Sprintf("%.2f GB/s", ddr.randomGBps),
		fmt.Sprintf("%.2f GB/s", hmc.randomGBps))
	t.addRow("Aggregate internal bandwidth",
		fmt.Sprintf("%.2f GB/s", ddr.randomGBps),
		fmt.Sprintf("%.2f GB/s (16 vaults)", internalGBps))
	speedup := 0.0
	if ddr.randomGBps > 0 {
		speedup = hmc.randomGBps / ddr.randomGBps
	}
	return hmcsim.Result{
		Series: []hmcsim.Series{idle, random, internal},
		Text: fmt.Sprintf("DDR baseline comparison (HMC random-bandwidth advantage: %.1fx)\n%s",
			speedup, t.String()),
	}
}
