package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/core"
)

// Fig6Point is one (pattern, size) point of Figure 6: the latency/
// bandwidth position of read-only GUPS traffic from all nine ports.
type Fig6Point struct {
	Pattern   string
	Size      int
	GBps      float64
	AvgLatNs  float64
	MinLatNs  float64
	MaxLatNs  float64
	ReadsPerS float64
}

// Fig6Result holds the full sweep.
type Fig6Result struct {
	Points []Fig6Point
}

// Fig6 sweeps every access pattern and request size with nine GUPS ports
// issuing read-only random traffic, reproducing the latency-vs-bandwidth
// scatter of Figure 6. Each (size, pattern) cell is an independent
// system, so the sweep fans out across workers.
func Fig6(ctx context.Context, o Options) Fig6Result {
	points := hmcsim.Sweep2(ctx, o.Workers, Sizes, Patterns, func(size int, ps PatternSpec) Fig6Point {
		sys := o.NewSystemCtx(ctx)
		r := sys.RunGUPS(core.GUPSSpec{
			Ports:   9,
			Size:    size,
			Pattern: ps.Build(sys),
			Warmup:  o.Warmup(),
			Window:  o.Window(),
		})
		return Fig6Point{
			Pattern:   ps.Name,
			Size:      size,
			GBps:      r.Bandwidth.GBpsValue(),
			AvgLatNs:  r.AvgLat.Nanoseconds(),
			MinLatNs:  r.MinLat.Nanoseconds(),
			MaxLatNs:  r.MaxLat.Nanoseconds(),
			ReadsPerS: r.ReadRate(),
		}
	})
	return Fig6Result{Points: points}
}

// Point returns the entry for a pattern/size pair.
func (r Fig6Result) Point(pattern string, size int) (Fig6Point, bool) {
	for _, p := range r.Points {
		if p.Pattern == pattern && p.Size == size {
			return p, true
		}
	}
	return Fig6Point{}, false
}

func (r Fig6Result) String() string {
	t := table{header: []string{"Pattern", "Size", "BW (GB/s)", "Avg lat (ns)", "Max lat (ns)"}}
	for _, p := range r.Points {
		t.addRow(p.Pattern,
			fmt.Sprintf("%dB", p.Size),
			fmt.Sprintf("%.2f", p.GBps),
			fmt.Sprintf("%.0f", p.AvgLatNs),
			fmt.Sprintf("%.0f", p.MaxLatNs))
	}
	return "Figure 6: read latency vs bi-directional bandwidth per access pattern\n" + t.String()
}

// Result converts to the structured form: one series per metric, points
// labeled by pattern with X = request size.
func (r Fig6Result) Result() hmcsim.Result {
	bw := hmcsim.Series{Name: "bandwidth", Unit: "GB/s"}
	avg := hmcsim.Series{Name: "avg-latency", Unit: "ns"}
	max := hmcsim.Series{Name: "max-latency", Unit: "ns"}
	for _, p := range r.Points {
		x := float64(p.Size)
		bw.Points = append(bw.Points, hmcsim.Point{Label: p.Pattern, X: x, Y: p.GBps})
		avg.Points = append(avg.Points, hmcsim.Point{Label: p.Pattern, X: x, Y: p.AvgLatNs})
		max.Points = append(max.Points, hmcsim.Point{Label: p.Pattern, X: x, Y: p.MaxLatNs})
	}
	return hmcsim.Result{Series: []hmcsim.Series{bw, avg, max}, Text: r.String()}
}
