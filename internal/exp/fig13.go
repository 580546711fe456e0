package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/core"
)

// fig13Point is one (size, pattern, ports) point: bi-directional counted
// bandwidth as the number of active GUPS ports scales.
type fig13Point struct {
	size     int
	pattern  string
	ports    int
	gbps     float64
	avgLatNs float64
	hmcOutst float64
}

// label names p's curve: its pattern and request size.
func (p fig13Point) label() string { return fmt.Sprintf("%s/%dB", p.pattern, p.size) }

type fig13Result []fig13Point

// fig13 reproduces the bandwidth-vs-active-ports sweep of Figure 13: the
// number of active ports is the proxy for requested bandwidth; sloped
// series are bottleneck-free, flat ones have hit a structural limit.
func fig13(ctx context.Context, o Options) fig13Result {
	ports := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if o.Quick {
		ports = []int{1, 3, 5, 7, 9}
	}
	type job struct {
		size int
		ps   hmcsim.PatternSpec
		np   int
	}
	var jobs []job
	for _, size := range sizes {
		for _, ps := range hmcsim.Patterns {
			for _, np := range ports {
				jobs = append(jobs, job{size, ps, np})
			}
		}
	}
	return hmcsim.Sweep(ctx, o.Workers, len(jobs), func(i int) fig13Point {
		j := jobs[i]
		sys := o.NewSystemCtx(ctx)
		r := sys.RunGUPS(core.GUPSSpec{
			Ports:   j.np,
			Size:    j.size,
			Pattern: j.ps.Build(sys),
			Warmup:  o.Warmup(),
			Window:  o.Window(),
		})
		return fig13Point{
			size:     j.size,
			pattern:  j.ps.Name,
			ports:    j.np,
			gbps:     r.Bandwidth.GBpsValue(),
			avgLatNs: r.AvgLat.Nanoseconds(),
			hmcOutst: r.HMCOutstanding,
		}
	})
}

// result renders one bandwidth series with points labeled
// "pattern/sizeB" and X = active ports, plus matching latency and
// occupancy series, and one table per size whose starred cells are
// within 5% of their series' maximum — the flat, saturated region of
// each curve.
func (points fig13Result) result() hmcsim.Result {
	bw := hmcsim.Series{Name: "bandwidth", Unit: "GB/s"}
	lat := hmcsim.Series{Name: "avg-latency", Unit: "ns"}
	outst := hmcsim.Series{Name: "hmc-outstanding", Unit: "transactions"}
	maxOf := map[string]float64{}
	for _, p := range points {
		label := p.label()
		x := float64(p.ports)
		bw.Points = append(bw.Points, hmcsim.Point{Label: label, X: x, Y: p.gbps})
		lat.Points = append(lat.Points, hmcsim.Point{Label: label, X: x, Y: p.avgLatNs})
		outst.Points = append(outst.Points, hmcsim.Point{Label: label, X: x, Y: p.hmcOutst})
		if p.gbps > maxOf[label] {
			maxOf[label] = p.gbps
		}
	}
	text := ""
	for _, size := range sizes {
		t := table{header: []string{"Pattern \\ Ports"}}
		seen := map[int]bool{}
		for _, p := range points {
			if p.size == size && !seen[p.ports] {
				seen[p.ports] = true
				t.header = append(t.header, fmt.Sprintf("%d", p.ports))
			}
		}
		for _, ps := range hmcsim.Patterns {
			row := []string{ps.Name}
			for _, p := range points {
				if p.size == size && p.pattern == ps.Name {
					cell := fmt.Sprintf("%.1f", p.gbps)
					if p.gbps >= 0.95*maxOf[p.label()] {
						cell += "*"
					}
					row = append(row, cell)
				}
			}
			t.addRow(row...)
		}
		text += fmt.Sprintf("Figure 13 (%dB): bandwidth (GB/s) vs active ports (* = saturated)\n%s\n", size, t.String())
	}
	return hmcsim.Result{Series: []hmcsim.Series{bw, lat, outst}, Text: text}
}
