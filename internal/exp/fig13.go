package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/core"
)

// Fig13Point is one (size, pattern, ports) point: bi-directional counted
// bandwidth as the number of active GUPS ports scales.
type Fig13Point struct {
	Size      int
	Pattern   string
	Ports     int
	GBps      float64
	AvgLatNs  float64
	AvgHMCNs  float64
	ReadRate  float64
	HMCOutst  float64
	Saturated bool // filled by the analysis pass
}

// Fig13Result holds the sweep.
type Fig13Result struct {
	Points []Fig13Point
}

// Fig13 reproduces the bandwidth-vs-active-ports sweep of Figure 13: the
// number of active ports is the proxy for requested bandwidth; sloped
// series are bottleneck-free, flat ones have hit a structural limit.
func Fig13(ctx context.Context, o Options) Fig13Result {
	ports := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if o.Quick {
		ports = []int{1, 3, 5, 7, 9}
	}
	type job struct {
		size int
		ps   PatternSpec
		np   int
	}
	var jobs []job
	for _, size := range Sizes {
		for _, ps := range Patterns {
			for _, np := range ports {
				jobs = append(jobs, job{size, ps, np})
			}
		}
	}
	points := hmcsim.Sweep(ctx, o.Workers, len(jobs), func(i int) Fig13Point {
		j := jobs[i]
		sys := o.NewSystemCtx(ctx)
		r := sys.RunGUPS(core.GUPSSpec{
			Ports:   j.np,
			Size:    j.size,
			Pattern: j.ps.Build(sys),
			Warmup:  o.Warmup(),
			Window:  o.Window(),
		})
		return Fig13Point{
			Size:     j.size,
			Pattern:  j.ps.Name,
			Ports:    j.np,
			GBps:     r.Bandwidth.GBpsValue(),
			AvgLatNs: r.AvgLat.Nanoseconds(),
			AvgHMCNs: r.AvgHMCLat.Nanoseconds(),
			ReadRate: r.ReadRate(),
			HMCOutst: r.HMCOutstanding,
		}
	})
	res := Fig13Result{Points: points}
	res.markSaturation()
	return res
}

// markSaturation flags points whose bandwidth is within 5% of the
// series' maximum — the flat region of each curve.
func (r *Fig13Result) markSaturation() {
	maxOf := map[string]float64{}
	key := func(p Fig13Point) string { return fmt.Sprintf("%d/%s", p.Size, p.Pattern) }
	for _, p := range r.Points {
		if p.GBps > maxOf[key(p)] {
			maxOf[key(p)] = p.GBps
		}
	}
	for i := range r.Points {
		r.Points[i].Saturated = r.Points[i].GBps >= 0.95*maxOf[key(r.Points[i])]
	}
}

// Series returns (ports, GB/s) for one size and pattern.
func (r Fig13Result) Series(size int, pattern string) (ports []float64, gbps []float64) {
	for _, p := range r.Points {
		if p.Size == size && p.Pattern == pattern {
			ports = append(ports, float64(p.Ports))
			gbps = append(gbps, p.GBps)
		}
	}
	return ports, gbps
}

// SaturatedPoint returns the highest-port point of a series, which in
// every pattern of the paper is in the saturated region at nine ports.
func (r Fig13Result) SaturatedPoint(size int, pattern string) (Fig13Point, bool) {
	var best Fig13Point
	found := false
	for _, p := range r.Points {
		if p.Size == size && p.Pattern == pattern && (!found || p.Ports > best.Ports) {
			best = p
			found = true
		}
	}
	return best, found
}

func (r Fig13Result) String() string {
	out := ""
	for _, size := range Sizes {
		t := table{header: []string{"Pattern \\ Ports"}}
		seen := map[int]bool{}
		for _, p := range r.Points {
			if p.Size == size && !seen[p.Ports] {
				seen[p.Ports] = true
				t.header = append(t.header, fmt.Sprintf("%d", p.Ports))
			}
		}
		for _, ps := range Patterns {
			row := []string{ps.Name}
			for _, p := range r.Points {
				if p.Size == size && p.Pattern == ps.Name {
					cell := fmt.Sprintf("%.1f", p.GBps)
					if p.Saturated {
						cell += "*"
					}
					row = append(row, cell)
				}
			}
			t.addRow(row...)
		}
		out += fmt.Sprintf("Figure 13 (%dB): bandwidth (GB/s) vs active ports (* = saturated)\n%s\n", size, t.String())
	}
	return out
}

// Result converts to the structured form: one bandwidth series with
// points labeled "pattern/sizeB" and X = active ports, plus matching
// latency and occupancy series.
func (r Fig13Result) Result() hmcsim.Result {
	bw := hmcsim.Series{Name: "bandwidth", Unit: "GB/s"}
	lat := hmcsim.Series{Name: "avg-latency", Unit: "ns"}
	outst := hmcsim.Series{Name: "hmc-outstanding", Unit: "transactions"}
	for _, p := range r.Points {
		label := fmt.Sprintf("%s/%dB", p.Pattern, p.Size)
		x := float64(p.Ports)
		bw.Points = append(bw.Points, hmcsim.Point{Label: label, X: x, Y: p.GBps})
		lat.Points = append(lat.Points, hmcsim.Point{Label: label, X: x, Y: p.AvgLatNs})
		outst.Points = append(outst.Points, hmcsim.Point{Label: label, X: x, Y: p.HMCOutst})
	}
	return hmcsim.Result{Series: []hmcsim.Series{bw, lat, outst}, Text: r.String()}
}
