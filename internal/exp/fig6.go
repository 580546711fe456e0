package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/core"
)

// fig6Point is one (pattern, size) point of Figure 6: the latency/
// bandwidth position of read-only GUPS traffic from all nine ports.
type fig6Point struct {
	pattern  string
	size     int
	gbps     float64
	avgLatNs float64
	maxLatNs float64
}

type fig6Result []fig6Point

// fig6 sweeps every access pattern and request size with nine GUPS ports
// issuing read-only random traffic, reproducing the latency-vs-bandwidth
// scatter of Figure 6. Each (size, pattern) cell is an independent
// system, so the sweep fans out across workers.
func fig6(ctx context.Context, o Options) fig6Result {
	return hmcsim.Sweep2(ctx, o.Workers, sizes, hmcsim.Patterns, func(size int, ps hmcsim.PatternSpec) fig6Point {
		sys := o.NewSystemCtx(ctx)
		r := sys.RunGUPS(core.GUPSSpec{
			Ports:   9,
			Size:    size,
			Pattern: ps.Build(sys),
			Warmup:  o.Warmup(),
			Window:  o.Window(),
		})
		return fig6Point{
			pattern:  ps.Name,
			size:     size,
			gbps:     r.Bandwidth.GBpsValue(),
			avgLatNs: r.AvgLat.Nanoseconds(),
			maxLatNs: r.MaxLat.Nanoseconds(),
		}
	})
}

// result renders one series per metric, points labeled by pattern with
// X = request size.
func (points fig6Result) result() hmcsim.Result {
	bw := hmcsim.Series{Name: "bandwidth", Unit: "GB/s"}
	avg := hmcsim.Series{Name: "avg-latency", Unit: "ns"}
	max := hmcsim.Series{Name: "max-latency", Unit: "ns"}
	t := table{header: []string{"Pattern", "Size", "BW (GB/s)", "Avg lat (ns)", "Max lat (ns)"}}
	for _, p := range points {
		x := float64(p.size)
		bw.Points = append(bw.Points, hmcsim.Point{Label: p.pattern, X: x, Y: p.gbps})
		avg.Points = append(avg.Points, hmcsim.Point{Label: p.pattern, X: x, Y: p.avgLatNs})
		max.Points = append(max.Points, hmcsim.Point{Label: p.pattern, X: x, Y: p.maxLatNs})
		t.addRow(p.pattern,
			fmt.Sprintf("%dB", p.size),
			fmt.Sprintf("%.2f", p.gbps),
			fmt.Sprintf("%.0f", p.avgLatNs),
			fmt.Sprintf("%.0f", p.maxLatNs))
	}
	return hmcsim.Result{
		Series: []hmcsim.Series{bw, avg, max},
		Text:   "Figure 6: read latency vs bi-directional bandwidth per access pattern\n" + t.String(),
	}
}
