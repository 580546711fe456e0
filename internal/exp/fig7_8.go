package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/addr"
	"hmcsim/internal/host"
)

// LowLoadPoint is one (size, n) point of the low-contention latency
// curves: the average latency of a stream of n random reads confined to
// the sixteen banks of one vault, averaged over all vaults (Section
// IV-B).
type LowLoadPoint struct {
	Size     int
	N        int
	AvgLatNs float64
	MaxLatNs float64
}

// LowLoadResult holds one curve family (Figure 7 or Figure 8).
type LowLoadResult struct {
	Figure string
	Points []LowLoadPoint
}

// Fig7 reproduces Figure 7: stream lengths one to 55.
func Fig7(ctx context.Context, o Options) LowLoadResult {
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

// Fig8 reproduces Figure 8: stream lengths one to 350, showing the
// linear region and the saturated plateau.
func Fig8(ctx context.Context, o Options) LowLoadResult {
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

func lowLoad(ctx context.Context, o Options, figure string, ns []int) LowLoadResult {
	res := LowLoadResult{Figure: figure}
	vaults := addr.Vaults
	if o.Quick {
		vaults = 4
	}
	// One system per size; bursts replay back-to-back on one port, each
	// fully draining before the next starts, as the multi-port stream
	// software does. Sizes are independent systems, so they fan out.
	perSize := hmcsim.Sweep(ctx, o.Workers, len(Sizes), func(si int) []LowLoadPoint {
		size := Sizes[si]
		sys := o.NewSystemCtx(ctx)
		points := make([]LowLoadPoint, 0, len(ns))
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
			points = append(points, LowLoadPoint{
				Size:     size,
				N:        n,
				AvgLatNs: agg / float64(vaults),
				MaxLatNs: max,
			})
		}
		return points
	})
	for _, pts := range perSize {
		res.Points = append(res.Points, pts...)
	}
	return res
}

// Point returns the entry for a size/n pair.
func (r LowLoadResult) Point(size, n int) (LowLoadPoint, bool) {
	for _, p := range r.Points {
		if p.Size == size && p.N == n {
			return p, true
		}
	}
	return LowLoadPoint{}, false
}

// Curve returns the (n, avg latency) series for one size.
func (r LowLoadResult) Curve(size int) (ns []float64, lat []float64) {
	for _, p := range r.Points {
		if p.Size == size {
			ns = append(ns, float64(p.N))
			lat = append(lat, p.AvgLatNs)
		}
	}
	return ns, lat
}

func (r LowLoadResult) String() string {
	t := table{header: []string{"#Requests", "16B (ns)", "32B (ns)", "64B (ns)", "128B (ns)"}}
	byN := map[int][4]float64{}
	for _, p := range r.Points {
		e := byN[p.N]
		for i, s := range Sizes {
			if p.Size == s {
				e[i] = p.AvgLatNs
			}
		}
		byN[p.N] = e
	}
	for _, n := range sortedKeys(byN) {
		e := byN[n]
		t.addRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", e[0]), fmt.Sprintf("%.0f", e[1]),
			fmt.Sprintf("%.0f", e[2]), fmt.Sprintf("%.0f", e[3]))
	}
	return r.Figure + ": average low-load latency vs stream length\n" + t.String()
}

// Result converts to the structured form: latency series with points
// labeled by request size and X = stream length.
func (r LowLoadResult) Result() hmcsim.Result {
	avg := hmcsim.Series{Name: "avg-latency", Unit: "ns"}
	max := hmcsim.Series{Name: "max-latency", Unit: "ns"}
	for _, p := range r.Points {
		label := fmt.Sprintf("%dB", p.Size)
		avg.Points = append(avg.Points, hmcsim.Point{Label: label, X: float64(p.N), Y: p.AvgLatNs})
		max.Points = append(max.Points, hmcsim.Point{Label: label, X: float64(p.N), Y: p.MaxLatNs})
	}
	return hmcsim.Result{Series: []hmcsim.Series{avg, max}, Text: r.String()}
}
