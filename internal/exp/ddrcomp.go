package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/stats"
)

// BackendPoint is one device's row of the comparison sweep.
type BackendPoint struct {
	Backend    string
	IdleLatNs  float64
	RandomGBps float64
}

// DDRComparisonResult backs the paper's qualitative claims against
// traditional DDRx: the HMC's packetized path has a higher idle latency
// than a synchronous DDR channel, but vastly higher bandwidth under
// parallel random traffic.
type DDRComparisonResult struct {
	// Backends holds one row per compared device, in
	// hmcsim.ComparisonBackends order (DDR first).
	Backends []BackendPoint

	DDRIdleLatNs float64
	HMCIdleLatNs float64 // device-only latency (excluding host FPGA floor)

	DDRRandomGBps float64
	HMCRandomGBps float64 // data bytes through the host infrastructure
	// HMCInternalGBps is the cube's aggregate internal bandwidth
	// (16 vaults x 10 GB/s); the measured figure is capped by the two
	// half-width links and the FPGA controller, not by the memory.
	HMCInternalGBps float64
}

// DDRComparison measures every comparison backend on the same 64 B
// workloads — a plain sweep over the hmcsim.Backend list.
func DDRComparison(ctx context.Context, o Options) DDRComparisonResult {
	backends := hmcsim.ComparisonBackends()
	rows := hmcsim.Sweep(ctx, o.Workers, len(backends), func(i int) BackendPoint {
		b := backends[i]
		return BackendPoint{
			Backend:    b.Name(),
			IdleLatNs:  b.IdleLatencyNs(ctx, o, 64),
			RandomGBps: b.RandomReadGBps(ctx, o, 64),
		}
	})
	res := DDRComparisonResult{Backends: rows}
	// Legacy headline fields: the sweep order is DDR first, HMC second.
	res.DDRIdleLatNs, res.DDRRandomGBps = rows[0].IdleLatNs, rows[0].RandomGBps
	res.HMCIdleLatNs, res.HMCRandomGBps = rows[1].IdleLatNs, rows[1].RandomGBps
	res.HMCInternalGBps = hmcsim.HMCDevice{}.InternalGBps()
	return res
}

func (r DDRComparisonResult) String() string {
	t := table{header: []string{"Metric", "DDR3-1600 channel", "HMC 1.1 (device)"}}
	t.addRow("Idle 64B read latency",
		fmt.Sprintf("%.0f ns", r.DDRIdleLatNs),
		fmt.Sprintf("%.0f ns", r.HMCIdleLatNs))
	t.addRow("Random 64B read data bandwidth",
		fmt.Sprintf("%.2f GB/s", r.DDRRandomGBps),
		fmt.Sprintf("%.2f GB/s", r.HMCRandomGBps))
	t.addRow("Aggregate internal bandwidth",
		fmt.Sprintf("%.2f GB/s", r.DDRRandomGBps),
		fmt.Sprintf("%.2f GB/s (16 vaults)", r.HMCInternalGBps))
	speedup := 0.0
	if r.DDRRandomGBps > 0 {
		speedup = r.HMCRandomGBps / r.DDRRandomGBps
	}
	return fmt.Sprintf("DDR baseline comparison (HMC random-bandwidth advantage: %.1fx)\n%s",
		speedup, t.String())
}

// Result converts to the structured form: idle latency and random
// bandwidth per backend, plus the cube-internal ceiling.
func (r DDRComparisonResult) Result() hmcsim.Result {
	idle := hmcsim.Series{Name: "idle-latency", Unit: "ns"}
	random := hmcsim.Series{Name: "random-read-bandwidth", Unit: "GB/s"}
	for _, row := range r.Backends {
		idle.Points = append(idle.Points, hmcsim.Point{Label: row.Backend, X: 64, Y: row.IdleLatNs})
		random.Points = append(random.Points, hmcsim.Point{Label: row.Backend, X: 64, Y: row.RandomGBps})
	}
	internal := hmcsim.Series{Name: "hmc-internal-bandwidth", Unit: "GB/s",
		Points: []hmcsim.Point{{Label: "HMC 1.1 (16 vaults)", X: 64, Y: r.HMCInternalGBps}}}
	return hmcsim.Result{Series: []hmcsim.Series{idle, random, internal}, Text: r.String()}
}

// Correlation quantifies the Figure 12 claim that vault position barely
// matters: the Pearson correlation between vault number and that vault's
// mean attributed latency should be near zero.
func (r VaultComboResult) Correlation(size int) float64 {
	var xs, ys []float64
	for v, samples := range r.SamplesByVault[size] {
		var s stats.Stream
		for _, x := range samples {
			s.Add(x)
		}
		xs = append(xs, float64(v))
		ys = append(ys, s.Mean())
	}
	return stats.Pearson(xs, ys)
}
