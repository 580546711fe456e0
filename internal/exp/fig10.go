package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/addr"
	"hmcsim/internal/host"
	"hmcsim/internal/stats"
)

// VaultComboResult holds the four-vault combination study behind Figures
// 10, 11 and 12: for every combination of four distinct vaults, four
// stream ports each hammer one vault; the average latency of the run is
// attributed to every vault in the combination.
type VaultComboResult struct {
	// SamplesByVault[size][vault] lists the attributed combo-average
	// latencies (ns).
	SamplesByVault map[int][][]float64
	Combos         int
}

// Combinations4 enumerates all C(16,4) = 1820 four-vault combinations in
// lexicographic order.
func Combinations4() [][4]int {
	var out [][4]int
	for a := 0; a < addr.Vaults; a++ {
		for b := a + 1; b < addr.Vaults; b++ {
			for c := b + 1; c < addr.Vaults; c++ {
				for d := c + 1; d < addr.Vaults; d++ {
					out = append(out, [4]int{a, b, c, d})
				}
			}
		}
	}
	return out
}

// Fig10 runs the combination study. Quick mode subsamples the 1820
// combinations to keep bench times reasonable; the CLI runs the full set.
func Fig10(ctx context.Context, o Options) VaultComboResult {
	combos := Combinations4()
	stride := 1
	if o.Quick {
		stride = 16 // 114 combos
	}
	n := 256
	if o.Quick {
		n = 128
	}
	res := VaultComboResult{SamplesByVault: map[int][][]float64{}}
	// One shared system per size replays every combination; the sizes
	// are independent systems and fan out across workers.
	type sizeRun struct {
		perVault [][]float64
		combos   int
	}
	perSize := hmcsim.Sweep(ctx, o.Workers, len(Sizes), func(si int) sizeRun {
		size := Sizes[si]
		run := sizeRun{perVault: make([][]float64, addr.Vaults)}
		sys := o.NewSystemCtx(ctx)
		for ci := 0; ci < len(combos); ci += stride {
			combo := combos[ci]
			// Every port spreads its reads over the whole four-vault
			// region ("accesses to four vaults, targeting 1 GB in
			// total"), so ports interleave at the vaults and the NoC.
			traces := make([][]host.Request, 4)
			for i := range traces {
				traces[i] = sys.RandomTraceVaults(n, size, combo[:],
					o.Seed+uint64(ci*7+i))
			}
			ports := sys.PlayStreams(traces)
			var agg float64
			var reads uint64
			for _, p := range ports {
				agg += p.Mon.AggLat.Nanoseconds()
				reads += p.Mon.Reads
			}
			avg := agg / float64(reads)
			for _, v := range combo {
				run.perVault[v] = append(run.perVault[v], avg)
			}
			run.combos++
		}
		return run
	})
	for si, size := range Sizes {
		res.SamplesByVault[size] = perSize[si].perVault
	}
	res.Combos = perSize[0].combos
	return res
}

// Stats returns the mean and standard deviation of all attributed
// latencies for one size — the bars of Figure 11.
func (r VaultComboResult) Stats(size int) (mean, sigma float64) {
	var s stats.Stream
	for _, vs := range r.SamplesByVault[size] {
		for _, x := range vs {
			s.Add(x)
		}
	}
	return s.Mean(), s.StdDev()
}

// Range returns the spread (max-min) of attributed latencies for a size,
// the "range of latency variations" quoted in Section IV-D.
func (r VaultComboResult) Range(size int) float64 {
	var s stats.Stream
	for _, vs := range r.SamplesByVault[size] {
		for _, x := range vs {
			s.Add(x)
		}
	}
	return s.Max() - s.Min()
}

// VaultHistograms builds the per-vault latency histograms of Figure 10
// for one size: one histogram per vault over nine bins spanning the
// observed range.
func (r VaultComboResult) VaultHistograms(size int) []*stats.Histogram {
	var all stats.Stream
	for _, vs := range r.SamplesByVault[size] {
		for _, x := range vs {
			all.Add(x)
		}
	}
	lo, hi := all.Min(), all.Max()
	if hi <= lo {
		hi = lo + 1
	}
	hists := make([]*stats.Histogram, addr.Vaults)
	for v := range hists {
		hists[v] = stats.NewHistogram(lo, hi, 9)
		for _, x := range r.SamplesByVault[size][v] {
			hists[v].Add(x)
		}
	}
	return hists
}

// Heatmap renders Figure 10 for one size: rows are vaults, columns are
// latency intervals, intensity is the per-vault normalized count.
func (r VaultComboResult) Heatmap(size int) stats.Heatmap {
	hists := r.VaultHistograms(size)
	m := stats.Heatmap{RowLabel: "vault", ColLabel: "latency (ns)"}
	for i := 0; i < 9; i++ {
		m.ColNames = append(m.ColNames, fmt.Sprintf("%5.0f", hists[0].BinCenter(i)))
	}
	for v, h := range hists {
		m.RowNames = append(m.RowNames, fmt.Sprintf("%d", v))
		m.Intensity = append(m.Intensity, h.Normalized())
	}
	return m
}

// TransposeHeatmap renders Figure 12 for one size: rows are latency
// intervals, columns are vaults, each row normalized by its own maximum
// (as the paper does).
func (r VaultComboResult) TransposeHeatmap(size int) stats.Heatmap {
	hists := r.VaultHistograms(size)
	m := stats.Heatmap{RowLabel: "lat (ns)", ColLabel: "vault"}
	for v := range hists {
		m.ColNames = append(m.ColNames, fmt.Sprintf("%2d", v))
	}
	for bin := 0; bin < 9; bin++ {
		m.RowNames = append(m.RowNames, fmt.Sprintf("%.0f", hists[0].BinCenter(bin)))
		row := make([]float64, len(hists))
		var max float64
		for v, h := range hists {
			row[v] = float64(h.Bins()[bin])
			if row[v] > max {
				max = row[v]
			}
		}
		if max > 0 {
			for v := range row {
				row[v] /= max
			}
		}
		m.Intensity = append(m.Intensity, row)
	}
	return m
}

func (r VaultComboResult) String() string {
	out := fmt.Sprintf("Figures 10-12: %d four-vault combinations per size\n", r.Combos)
	t := table{header: []string{"Size", "Mean (ns)", "StdDev (ns)", "Range (ns)"}}
	for _, size := range Sizes {
		mean, sigma := r.Stats(size)
		t.addRow(fmt.Sprintf("%dB", size),
			fmt.Sprintf("%.0f", mean),
			fmt.Sprintf("%.1f", sigma),
			fmt.Sprintf("%.0f", r.Range(size)))
	}
	out += "Figure 11: average and standard deviation across vaults\n" + t.String()
	for _, size := range Sizes {
		out += fmt.Sprintf("\nFigure 10 heatmap, %dB (rows=vaults, cols=latency bins):\n%s",
			size, r.Heatmap(size).Render())
	}
	for _, size := range Sizes {
		out += fmt.Sprintf("\nFigure 12 heatmap, %dB (rows=latency bins, cols=vaults):\n%s",
			size, r.TransposeHeatmap(size).Render())
	}
	return out
}

// Result converts to the structured form: per-size summary statistics
// plus the vault-position correlation, the paper's headline claim.
func (r VaultComboResult) Result() hmcsim.Result {
	mean := hmcsim.Series{Name: "mean-latency", Unit: "ns"}
	sigma := hmcsim.Series{Name: "stddev-latency", Unit: "ns"}
	span := hmcsim.Series{Name: "range-latency", Unit: "ns"}
	corr := hmcsim.Series{Name: "vault-position-correlation", Unit: "pearson"}
	for _, size := range Sizes {
		m, s := r.Stats(size)
		x := float64(size)
		mean.Points = append(mean.Points, hmcsim.Point{X: x, Y: m})
		sigma.Points = append(sigma.Points, hmcsim.Point{X: x, Y: s})
		span.Points = append(span.Points, hmcsim.Point{X: x, Y: r.Range(size)})
		corr.Points = append(corr.Points, hmcsim.Point{X: x, Y: r.Correlation(size)})
	}
	return hmcsim.Result{Series: []hmcsim.Series{mean, sigma, span, corr}, Text: r.String()}
}
