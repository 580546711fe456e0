package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/core"
	"hmcsim/internal/stats"
)

// fig14Point is one bar of Figure 14: the estimated number of
// outstanding requests inside the cube for a bank-limited pattern at
// saturation.
type fig14Point struct {
	banks int
	size  int
	// littleN is the paper's estimate: measured request rate times the
	// time a request spends inside the memory (Little's law).
	littleN float64
	// sampledN is the simulator's ground truth: the time-averaged
	// in-flight count inside the cube.
	sampledN float64
}

type fig14Result []fig14Point

// fig14 reproduces the Little's-law analysis of Section IV-F: saturate
// the two- and four-bank patterns with all nine ports, estimate the
// outstanding requests, and observe the roughly linear growth with bank
// count that implies a queue per bank in the vault controller.
func fig14(ctx context.Context, o Options) fig14Result {
	return hmcsim.Sweep2(ctx, o.Workers, []int{2, 4}, sizes, func(banks, size int) fig14Point {
		sys := o.NewSystemCtx(ctx)
		pat := sys.Banks(banks)
		r := sys.RunGUPS(core.GUPSSpec{
			Ports:   9,
			Size:    size,
			Pattern: pat,
			Warmup:  o.Warmup() * 2, // bank queues take longer to fill
			Window:  o.Window(),
		})
		return fig14Point{
			banks:    banks,
			size:     size,
			littleN:  stats.Little(r.ReadRate(), r.AvgHMCLat.Seconds()),
			sampledN: r.HMCOutstanding,
		}
	})
}

// average returns the mean littleN across sizes for a bank count, the
// "288 for two banks and 535 for four banks, in average" figure.
func (r fig14Result) average(banks int) float64 {
	var sum float64
	var n int
	for _, p := range r {
		if p.banks == banks {
			sum += p.littleN
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// result renders the Little's-law estimate and the simulator's sampled
// ground truth, labeled by bank count with X = request size, and a
// table with one row per size.
func (r fig14Result) result() hmcsim.Result {
	little := hmcsim.Series{Name: "little-outstanding", Unit: "transactions"}
	sampled := hmcsim.Series{Name: "sampled-outstanding", Unit: "transactions"}
	bySize := map[int][4]float64{}
	for _, p := range r {
		label := fmt.Sprintf("%dbanks", p.banks)
		little.Points = append(little.Points, hmcsim.Point{Label: label, X: float64(p.size), Y: p.littleN})
		sampled.Points = append(sampled.Points, hmcsim.Point{Label: label, X: float64(p.size), Y: p.sampledN})
		e := bySize[p.size]
		if p.banks == 2 {
			e[0], e[1] = p.littleN, p.sampledN
		} else {
			e[2], e[3] = p.littleN, p.sampledN
		}
		bySize[p.size] = e
	}
	t := table{header: []string{"Size", "2 banks (Little)", "2 banks (sampled)", "4 banks (Little)", "4 banks (sampled)"}}
	for _, size := range sortedKeys(bySize) {
		e := bySize[size]
		t.addRow(fmt.Sprintf("%dB", size),
			fmt.Sprintf("%.0f", e[0]), fmt.Sprintf("%.0f", e[1]),
			fmt.Sprintf("%.0f", e[2]), fmt.Sprintf("%.0f", e[3]))
	}
	return hmcsim.Result{
		Series: []hmcsim.Series{little, sampled},
		Text: fmt.Sprintf(
			"Figure 14: estimated outstanding requests (avg: 2 banks=%.0f, 4 banks=%.0f)\n%s",
			r.average(2), r.average(4), t.String()),
	}
}
