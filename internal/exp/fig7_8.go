package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/addr"
	"hmcsim/internal/host"
)

// lowLoadPoint is one (size, n) point of the low-contention latency
// curves: the average latency of a stream of n random reads confined to
// the sixteen banks of one vault, averaged over all vaults (Section
// IV-B).
type lowLoadPoint struct {
	size     int
	n        int
	avgLatNs float64
	maxLatNs float64
}

// lowLoadResult holds one curve family (Figure 7 or Figure 8).
type lowLoadResult struct {
	figure string
	points []lowLoadPoint
}

// fig7 reproduces Figure 7: stream lengths one to 55.
func fig7(ctx context.Context, o Options) lowLoadResult {
	ns := make([]int, 0, 55)
	step := 1
	if o.Quick {
		step = 6
	}
	for n := 1; n <= 55; n += step {
		ns = append(ns, n)
	}
	return lowLoad(ctx, o, "Figure 7", ns)
}

// fig8 reproduces Figure 8: stream lengths one to 350, showing the
// linear region and the saturated plateau.
func fig8(ctx context.Context, o Options) lowLoadResult {
	step := 10
	if o.Quick {
		step = 35
	}
	ns := []int{1}
	for n := step; n <= 350; n += step {
		ns = append(ns, n)
	}
	return lowLoad(ctx, o, "Figure 8", ns)
}

func lowLoad(ctx context.Context, o Options, figure string, ns []int) lowLoadResult {
	res := lowLoadResult{figure: figure}
	vaults := addr.Vaults
	if o.Quick {
		vaults = 4
	}
	// One system per size; bursts replay back-to-back on one port, each
	// fully draining before the next starts, as the multi-port stream
	// software does. Sizes are independent systems, so they fan out.
	perSize := hmcsim.Sweep(ctx, o.Workers, len(sizes), func(si int) []lowLoadPoint {
		size := sizes[si]
		sys := o.NewSystemCtx(ctx)
		points := make([]lowLoadPoint, 0, len(ns))
		for _, n := range ns {
			var agg, max float64
			for v := 0; v < vaults; v++ {
				trace := sys.RandomTrace(n, size, sys.SingleVault(v),
					o.Seed+uint64(1000*n+v))
				ports := sys.PlayStreams([][]host.Request{trace})
				agg += ports[0].Mon.AvgLat().Nanoseconds()
				if m := ports[0].Mon.MaxLat.Nanoseconds(); m > max {
					max = m
				}
			}
			points = append(points, lowLoadPoint{
				size:     size,
				n:        n,
				avgLatNs: agg / float64(vaults),
				maxLatNs: max,
			})
		}
		return points
	})
	for _, pts := range perSize {
		res.points = append(res.points, pts...)
	}
	return res
}

// result renders latency series with points labeled by request size and
// X = stream length, and a table with one row per stream length.
func (r lowLoadResult) result() hmcsim.Result {
	avg := hmcsim.Series{Name: "avg-latency", Unit: "ns"}
	max := hmcsim.Series{Name: "max-latency", Unit: "ns"}
	byN := map[int][4]float64{}
	for _, p := range r.points {
		label := fmt.Sprintf("%dB", p.size)
		avg.Points = append(avg.Points, hmcsim.Point{Label: label, X: float64(p.n), Y: p.avgLatNs})
		max.Points = append(max.Points, hmcsim.Point{Label: label, X: float64(p.n), Y: p.maxLatNs})
		e := byN[p.n]
		for i, s := range sizes {
			if p.size == s {
				e[i] = p.avgLatNs
			}
		}
		byN[p.n] = e
	}
	t := table{header: []string{"#Requests", "16B (ns)", "32B (ns)", "64B (ns)", "128B (ns)"}}
	for _, n := range sortedKeys(byN) {
		e := byN[n]
		t.addRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", e[0]), fmt.Sprintf("%.0f", e[1]),
			fmt.Sprintf("%.0f", e[2]), fmt.Sprintf("%.0f", e[3]))
	}
	return hmcsim.Result{
		Series: []hmcsim.Series{avg, max},
		Text:   r.figure + ": average low-load latency vs stream length\n" + t.String(),
	}
}
