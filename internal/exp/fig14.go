package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/core"
	"hmcsim/internal/stats"
)

// Fig14Point is one bar of Figure 14: the estimated number of
// outstanding requests inside the cube for a bank-limited pattern at
// saturation.
type Fig14Point struct {
	Banks int
	Size  int
	// LittleN is the paper's estimate: measured request rate times the
	// time a request spends inside the memory (Little's law).
	LittleN float64
	// SampledN is the simulator's ground truth: the time-averaged
	// in-flight count inside the cube.
	SampledN float64
}

// Fig14Result holds the bars plus the per-bank averages.
type Fig14Result struct {
	Points []Fig14Point
}

// Fig14 reproduces the Little's-law analysis of Section IV-F: saturate
// the two- and four-bank patterns with all nine ports, estimate the
// outstanding requests, and observe the roughly linear growth with bank
// count that implies a queue per bank in the vault controller.
func Fig14(ctx context.Context, o Options) Fig14Result {
	points := hmcsim.Sweep2(ctx, o.Workers, []int{2, 4}, Sizes, func(banks, size int) Fig14Point {
		sys := o.NewSystemCtx(ctx)
		pat := sys.Banks(banks)
		r := sys.RunGUPS(core.GUPSSpec{
			Ports:   9,
			Size:    size,
			Pattern: pat,
			Warmup:  o.Warmup() * 2, // bank queues take longer to fill
			Window:  o.Window(),
		})
		return Fig14Point{
			Banks:    banks,
			Size:     size,
			LittleN:  stats.Little(r.ReadRate(), r.AvgHMCLat.Seconds()),
			SampledN: r.HMCOutstanding,
		}
	})
	return Fig14Result{Points: points}
}

// Average returns the mean LittleN across sizes for a bank count, the
// "288 for two banks and 535 for four banks, in average" figure.
func (r Fig14Result) Average(banks int) float64 {
	var sum float64
	var n int
	for _, p := range r.Points {
		if p.Banks == banks {
			sum += p.LittleN
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (r Fig14Result) String() string {
	t := table{header: []string{"Size", "2 banks (Little)", "2 banks (sampled)", "4 banks (Little)", "4 banks (sampled)"}}
	bySize := map[int][4]float64{}
	for _, p := range r.Points {
		e := bySize[p.Size]
		if p.Banks == 2 {
			e[0], e[1] = p.LittleN, p.SampledN
		} else {
			e[2], e[3] = p.LittleN, p.SampledN
		}
		bySize[p.Size] = e
	}
	for _, size := range sortedKeys(bySize) {
		e := bySize[size]
		t.addRow(fmt.Sprintf("%dB", size),
			fmt.Sprintf("%.0f", e[0]), fmt.Sprintf("%.0f", e[1]),
			fmt.Sprintf("%.0f", e[2]), fmt.Sprintf("%.0f", e[3]))
	}
	return fmt.Sprintf(
		"Figure 14: estimated outstanding requests (avg: 2 banks=%.0f, 4 banks=%.0f)\n%s",
		r.Average(2), r.Average(4), t.String())
}

// Result converts to the structured form: the Little's-law estimate and
// the simulator's sampled ground truth, labeled by bank count with
// X = request size.
func (r Fig14Result) Result() hmcsim.Result {
	little := hmcsim.Series{Name: "little-outstanding", Unit: "transactions"}
	sampled := hmcsim.Series{Name: "sampled-outstanding", Unit: "transactions"}
	for _, p := range r.Points {
		label := fmt.Sprintf("%dbanks", p.Banks)
		little.Points = append(little.Points, hmcsim.Point{Label: label, X: float64(p.Size), Y: p.LittleN})
		sampled.Points = append(sampled.Points, hmcsim.Point{Label: label, X: float64(p.Size), Y: p.SampledN})
	}
	return hmcsim.Result{Series: []hmcsim.Series{little, sampled}, Text: r.String()}
}
